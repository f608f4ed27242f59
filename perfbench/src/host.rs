//! The host descriptor printed with every result, the data directory's
//! filesystem type, and the process's peak resident memory.

use std::path::Path;

/// What a result was measured on.
#[derive(Debug)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// CPU model name.
    pub cpu: String,
    /// Filesystem type of the data directory (`ext4`, `xfs`, `tmpfs`, …).
    pub data_dir_fs: String,
}

impl Host {
    /// Describe this host, with `data_dir` (which must exist) as the
    /// directory the workload writes to.
    pub fn describe(data_dir: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            cpu,
            data_dir_fs: fs_type(data_dir).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// True when fsync costs nothing on the data directory's filesystem, so
    /// a durable serving measurement would be meaningless.
    pub fn fsync_is_free(&self) -> bool {
        matches!(self.data_dir_fs.as_str(), "tmpfs" | "ramfs")
    }

    /// The descriptor as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel\": \"{}\", \"cpu\": \"{}\", \"data_dir_fs\": \"{}\"}}",
            self.nproc,
            crate::report::escape(&self.kernel),
            crate::report::escape(&self.cpu),
            crate::report::escape(&self.data_dir_fs)
        )
    }
}

/// Filesystem type of the mount holding `path`: the longest mount point in
/// `/proc/self/mountinfo` that is a prefix of the canonical path.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent dev root mount-point options [optional...] - fstype source super
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        let mount = unescape_mount(mount);
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// Mount points escape space, tab, newline and backslash as octal.
fn unescape_mount(s: &str) -> String {
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let code = rest
            .get(i + 1..i + 4)
            .and_then(|o| u8::from_str_radix(o, 8).ok());
        match code {
            Some(c) => {
                out.push(c as char);
                rest = &rest[i + 4..];
            }
            None => {
                out.push('\\');
                rest = &rest[i + 1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
