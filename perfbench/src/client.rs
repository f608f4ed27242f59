//! Closed-loop clients: each sends one request, waits for its reply, then
//! sends the next, until the phase deadline. No pipelining, no retries —
//! a stalled reply is measured as a user sees it.
//!
//! Two transports drive the same op stream: the line protocol over a TCP
//! connection to the program's `Server`, and direct in-process calls into
//! `CoreService` (the traced path, which wraps each call in spans).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use kcore_suite::semicore::MaintainStats;
use kcore_suite::CoreService;

use crate::ops::{ClientModel, Op};
use crate::report::{median, percentile, sorted};
use crate::trace::{self, Tracer};

/// The served graph's name.
pub const GRAPH: &str = "g";

/// At most this many consecutive stretches of a phase have their latency
/// percentiles medianed.
const MAX_WINDOWS: usize = 5;

/// Samples a stretch needs: its p99 then has ten samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 1000;

/// A reply slower than this is a client I/O error.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Latency of one successful op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Insert or delete (else a query).
    pub update: bool,
    /// Request-to-reply time.
    pub ns: u64,
}

/// What a traced in-process op spent where.
#[derive(Debug, Clone)]
pub struct TracedOp {
    /// The op.
    pub op: Op,
    /// Time inside the `CoreService` call.
    pub service_ns: u64,
    /// Vfs time inside the call (journal, checkpoint, table reads).
    pub vfs_ns: u64,
    /// The table-read part of `vfs_ns`.
    pub table_read_ns: u64,
    /// A checkpoint file was written during the call.
    pub checkpointed: bool,
    /// Maintenance kernel statistics (updates only).
    pub stats: Option<MaintainStats>,
}

/// One client's phase.
#[derive(Debug)]
pub struct ClientRun {
    /// The model, to carry into the next phase.
    pub model: ClientModel,
    /// Latencies of successful ops.
    pub samples: Vec<Sample>,
    /// Per-op breakdown (traced in-process phases only).
    pub traced: Vec<TracedOp>,
    /// Acknowledged updates, in this client's order.
    pub acked: Vec<Op>,
    /// Ops attempted.
    pub attempted: u64,
    /// `err` replies, refused connections and client I/O errors.
    pub failed: u64,
    /// Wall time of the client loop.
    pub wall_ns: u64,
}

/// How a phase reaches the service.
#[derive(Debug, Clone)]
pub enum Transport {
    /// The line protocol over TCP.
    Tcp(SocketAddr),
    /// Direct calls; spans are recorded when the tracer is on.
    InProcess(Arc<CoreService>, Arc<Tracer>),
}

/// All clients of a phase, run concurrently until `deadline`.
#[derive(Debug)]
pub struct Phase {
    /// Per-client results, in client order.
    pub clients: Vec<ClientRun>,
    /// From the start barrier until the last client finished.
    pub wall_s: f64,
}

impl Phase {
    /// Latencies (µs) of successful updates or queries, ascending.
    pub fn latencies_us(&self, update: bool) -> Vec<f64> {
        let v: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| c.samples.iter())
            .filter(|s| s.update == update)
            .map(|s| s.ns as f64 / 1e3)
            .collect();
        sorted(&v)
    }

    /// Latency percentile `p` (µs) of successful updates or queries, taken
    /// in each of up to [`MAX_WINDOWS`] consecutive stretches of every
    /// client's stream and reported as the median of those: a burst of
    /// host noise moves one stretch's tail, not the figure. Stretches keep
    /// at least [`MIN_WINDOW_SAMPLES`] samples, so a short stream is one
    /// stretch.
    pub fn windowed_percentile_us(&self, update: bool, p: f64) -> f64 {
        let n = self.latencies_us(update).len();
        let windows = (n / MIN_WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
        let per_window: Vec<f64> = (0..windows)
            .filter_map(|k| {
                let v: Vec<f64> = self
                    .clients
                    .iter()
                    .flat_map(|c| {
                        let mine: Vec<f64> = c
                            .samples
                            .iter()
                            .filter(|s| s.update == update)
                            .map(|s| s.ns as f64 / 1e3)
                            .collect();
                        let (lo, hi) = (mine.len() * k / windows, mine.len() * (k + 1) / windows);
                        mine[lo..hi].to_vec()
                    })
                    .collect();
                (!v.is_empty()).then(|| percentile(&sorted(&v), p))
            })
            .collect();
        median(&per_window)
    }

    /// Ops attempted and failed.
    pub fn attempts(&self) -> (u64, u64) {
        self.clients
            .iter()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }

    /// Traced ops of every client.
    pub fn traced(&self) -> impl Iterator<Item = &TracedOp> {
        self.clients.iter().flat_map(|c| c.traced.iter())
    }

    /// Sum of the client loops' wall times.
    pub fn client_wall_ns(&self) -> u64 {
        self.clients.iter().map(|c| c.wall_ns).sum()
    }

    /// The models as they ended, for the next phase.
    pub fn models(&self) -> Vec<ClientModel> {
        self.clients.iter().map(|c| c.model.clone()).collect()
    }

    /// The models as they ended, moved out for the next phase; the phase
    /// keeps empty ones. Unlike [`Phase::models`], this copies no edge
    /// lists, so the measuring process's memory stays as it was.
    pub fn take_models(&mut self) -> Vec<ClientModel> {
        self.clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.model))
            .collect()
    }

    /// Consecutive phases of the same clients as one.
    pub fn concat(phases: Vec<Phase>) -> Phase {
        let mut phases = phases.into_iter();
        let mut all = phases.next().expect("at least one phase");
        for p in phases {
            all.wall_s += p.wall_s;
            for (a, b) in all.clients.iter_mut().zip(p.clients) {
                a.model = b.model;
                a.samples.extend(b.samples);
                a.traced.extend(b.traced);
                a.acked.extend(b.acked);
                a.attempted += b.attempted;
                a.failed += b.failed;
                a.wall_ns += b.wall_ns;
            }
        }
        all
    }

    /// Acknowledged updates per client, in each client's order.
    pub fn acked(&self) -> Vec<Vec<Op>> {
        self.clients.iter().map(|c| c.acked.clone()).collect()
    }
}

/// Run one client per model until `run_for` has passed.
pub fn run_phase(
    transport: &Transport,
    models: Vec<ClientModel>,
    run_for: Duration,
    req_base: u64,
) -> Phase {
    let barrier = Arc::new(Barrier::new(models.len() + 1));
    let handles: Vec<_> = models
        .into_iter()
        .enumerate()
        .map(|(i, model)| {
            let transport = transport.clone();
            let barrier = Arc::clone(&barrier);
            let req = req_base + ((i as u64) << 40);
            std::thread::spawn(move || client(transport, model, &barrier, run_for, req))
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let clients = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    Phase {
        clients,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn client(
    transport: Transport,
    model: ClientModel,
    barrier: &Barrier,
    run_for: Duration,
    req_base: u64,
) -> ClientRun {
    let mut run = ClientRun {
        model,
        samples: Vec::new(),
        traced: Vec::new(),
        acked: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_ns: 0,
    };
    // Connect before the barrier so set-up stays out of the measurement.
    let mut session = match transport {
        Transport::Tcp(addr) => match TcpConn::connect(addr) {
            Ok(c) => Session::Tcp(c),
            Err(e) => {
                eprintln!("client: connect to {addr} failed: {e}");
                barrier.wait();
                run.attempted = 1;
                run.failed = 1;
                return run;
            }
        },
        Transport::InProcess(svc, tracer) => Session::Local(svc, tracer),
    };
    barrier.wait();
    let start = Instant::now();
    let deadline = start + run_for;
    let mut req = req_base;
    while Instant::now() < deadline {
        let op = run.model.next_op();
        req += 1;
        run.attempted += 1;
        let t = Instant::now();
        let ok = match &mut session {
            Session::Tcp(c) => match c.call(&op) {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("client: {e}");
                    run.failed += 1;
                    run.model.failed(op);
                    break;
                }
            },
            Session::Local(svc, tracer) => in_process(svc, tracer, op, req, &mut run.traced),
        };
        let ns = t.elapsed().as_nanos() as u64;
        if ok {
            run.samples.push(Sample {
                update: op.is_update(),
                ns,
            });
            if op.is_update() {
                run.acked.push(op);
            }
        } else {
            run.failed += 1;
            run.model.failed(op);
        }
    }
    run.wall_ns = start.elapsed().as_nanos() as u64;
    run
}

/// One in-process op; with tracing on, its spans and breakdown are kept.
fn in_process(
    svc: &CoreService,
    tracer: &Arc<Tracer>,
    op: Op,
    req: u64,
    traced: &mut Vec<TracedOp>,
) -> bool {
    let on = tracer.enabled();
    trace::set_request(req);
    let _root = tracer.enter("client.op");
    let vfs0 = trace::thread_vfs_ns();
    let table0 = trace::thread_table_read_ns();
    let ck0 = trace::thread_ckpt_creates();
    let t = Instant::now();
    let (ok, stats) = {
        let _s = tracer.enter(match op {
            Op::Insert(..) => "service.insert",
            Op::Delete(..) => "service.delete",
            Op::Core(_) => "service.core",
            Op::Kmax => "service.kmax",
        });
        match op {
            Op::Insert(u, v) => split(svc.insert_edge(GRAPH, u, v)),
            Op::Delete(u, v) => split(svc.delete_edge(GRAPH, u, v)),
            Op::Core(v) => (svc.core(GRAPH, v).is_ok(), None),
            Op::Kmax => (svc.kmax(GRAPH).is_ok(), None),
        }
    };
    if on {
        traced.push(TracedOp {
            op,
            service_ns: t.elapsed().as_nanos() as u64,
            vfs_ns: trace::thread_vfs_ns() - vfs0,
            table_read_ns: trace::thread_table_read_ns() - table0,
            checkpointed: trace::thread_ckpt_creates() > ck0,
            stats,
        });
    }
    ok
}

fn split(res: kcore_suite::graphstore::Result<MaintainStats>) -> (bool, Option<MaintainStats>) {
    match res {
        Ok(s) => (true, Some(s)),
        Err(e) => {
            eprintln!("client: update failed: {e}");
            (false, None)
        }
    }
}

/// One client's live link to the service.
enum Session {
    Tcp(TcpConn),
    Local(Arc<CoreService>, Arc<Tracer>),
}

/// A line-protocol connection: one request per write, one reply line back.
#[derive(Debug)]
struct TcpConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl TcpConn {
    fn connect(addr: SocketAddr) -> std::io::Result<TcpConn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(TcpConn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    /// Send `op` and wait for its reply; `Ok(false)` is an `err` reply.
    fn call(&mut self, op: &Op) -> std::io::Result<bool> {
        let mut request = op.line(GRAPH);
        request.push('\n');
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let reply = self.line.trim_end();
        let ok = !reply.starts_with("err");
        if !ok {
            eprintln!("client: {:?} -> {reply}", op.line(GRAPH));
        }
        Ok(ok)
    }
}
