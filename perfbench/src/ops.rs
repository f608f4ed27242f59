//! The seeded op stream of one closed-loop client.
//!
//! Updates follow the paper's §VI maintenance protocol: delete a randomly
//! chosen existing edge, and reinsert it later. Each client owns a disjoint
//! slice of the graph's edges, deletes only from its slice and reinserts
//! its own deletions oldest-first once [`DELETE_WINDOW`] are outstanding,
//! so every op is valid by construction and the graph stays stationary.
//! Queries are point `core` lookups, with every fourth one a `kmax`.

use std::collections::VecDeque;

/// Deleted edges a client keeps outstanding before it reinserts.
pub const DELETE_WINDOW: usize = 16;

/// SplitMix64: small, seeded and identical on every platform.
#[derive(Debug, Default, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Ops per cycle of a client's stream: `updates` updates, then `queries`
/// queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mix {
    /// Updates per cycle.
    pub updates: u32,
    /// Queries per cycle.
    pub queries: u32,
}

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert an absent edge.
    Insert(u32, u32),
    /// Delete a present edge.
    Delete(u32, u32),
    /// Core number of a node.
    Core(u32),
    /// Degeneracy of the graph.
    Kmax,
}

impl Op {
    /// True for inserts and deletes.
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Insert(..) | Op::Delete(..))
    }

    /// The protocol line for graph `g` (without the newline).
    pub fn line(&self, g: &str) -> String {
        match *self {
            Op::Insert(u, v) => format!("insert {g} {u} {v}"),
            Op::Delete(u, v) => format!("delete {g} {u} {v}"),
            Op::Core(v) => format!("core {g} {v}"),
            Op::Kmax => format!("kmax {g}"),
        }
    }
}

/// A client's view of its edge slice and where it is in its op cycle.
#[derive(Debug, Default, Clone)]
pub struct ClientModel {
    rng: Rng,
    num_nodes: u32,
    mix: Mix,
    present: Vec<(u32, u32)>,
    deleted: VecDeque<(u32, u32)>,
    step: u64,
    queries: u64,
}

impl ClientModel {
    /// Client `index` of `clients` over `edges` (each undirected edge
    /// once): it owns every edge whose position is `index` modulo
    /// `clients`, and sends ops in the proportions of `mix`.
    pub fn new(
        edges: &[(u32, u32)],
        num_nodes: u32,
        index: usize,
        clients: usize,
        mix: Mix,
        seed: u64,
    ) -> ClientModel {
        ClientModel {
            rng: Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            num_nodes,
            mix,
            present: edges.iter().skip(index).step_by(clients).copied().collect(),
            deleted: VecDeque::new(),
            step: 0,
            queries: 0,
        }
    }

    /// The next op. The model assumes it succeeds; call
    /// [`ClientModel::failed`] if it does not.
    pub fn next_op(&mut self) -> Op {
        let cycle = u64::from(self.mix.updates + self.mix.queries);
        let slot = self.step % cycle;
        self.step += 1;
        if slot >= u64::from(self.mix.updates) || self.present.is_empty() {
            self.queries += 1;
            return if self.queries.is_multiple_of(4) {
                Op::Kmax
            } else {
                Op::Core(self.rng.below(u64::from(self.num_nodes.max(1))) as u32)
            };
        }
        self.next_update()
    }

    /// The next update, outside the query mix (the model must own an edge).
    pub fn next_update(&mut self) -> Op {
        if self.deleted.len() >= DELETE_WINDOW || self.present.is_empty() {
            let (u, v) = self.deleted.pop_front().expect("window is non-empty");
            self.present.push((u, v));
            Op::Insert(u, v)
        } else {
            self.next_delete()
        }
    }

    /// Delete a random owned edge, past the window if need be (the model
    /// must still own one).
    pub fn next_delete(&mut self) -> Op {
        let i = self.rng.below(self.present.len() as u64) as usize;
        let (u, v) = self.present.swap_remove(i);
        self.deleted.push_back((u, v));
        Op::Delete(u, v)
    }

    /// Up to `n` edges this client owns and has not deleted, the ones it
    /// would delete last; the model is left as it is.
    pub fn present_tail(&self, n: usize) -> &[(u32, u32)] {
        &self.present[self.present.len().saturating_sub(n)..]
    }

    /// Undo the model change of a failed `op`: the service rejected it,
    /// so the edge is where it was before.
    pub fn failed(&mut self, op: Op) {
        match op {
            Op::Insert(u, v) => {
                if let Some(i) = self.present.iter().rposition(|&e| e == (u, v)) {
                    self.present.swap_remove(i);
                }
                self.deleted.push_front((u, v));
            }
            Op::Delete(u, v) => {
                if let Some(i) = self.deleted.iter().rposition(|&e| e == (u, v)) {
                    self.deleted.remove(i);
                }
                self.present.push((u, v));
            }
            Op::Core(_) | Op::Kmax => {}
        }
    }

    /// The edges still deleted, to reinsert so the graph returns to its
    /// original edge set; the model counts them as present again.
    pub fn drain(&mut self) -> Vec<(u32, u32)> {
        let edges: Vec<(u32, u32)> = self.deleted.drain(..).collect();
        self.present.extend_from_slice(&edges);
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_valid_stationary_and_seeded() {
        const MIX: Mix = Mix {
            updates: 3,
            queries: 1,
        };
        let edges: Vec<(u32, u32)> = (0..200).map(|i| (i, i + 1)).collect();
        let mut a = ClientModel::new(&edges, 201, 1, 2, MIX, 7);
        let mut b = ClientModel::new(&edges, 201, 1, 2, MIX, 7);
        let mut live: std::collections::HashSet<(u32, u32)> =
            edges.iter().skip(1).step_by(2).copied().collect();
        let (mut updates, mut queries) = (0, 0);
        for _ in 0..4000 {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            match op {
                Op::Insert(u, v) => assert!(live.insert((u, v)), "duplicate insert"),
                Op::Delete(u, v) => assert!(live.remove(&(u, v)), "absent delete"),
                _ => {}
            }
            if op.is_update() {
                updates += 1;
            } else {
                queries += 1;
            }
        }
        assert_eq!(updates, 3 * queries);
        assert!(100 - live.len() <= DELETE_WINDOW);
        for e in a.drain() {
            assert!(live.insert(e));
        }
        assert_eq!(live.len(), 100);
    }

    #[test]
    fn failed_ops_leave_the_model_where_the_service_is() {
        let edges: Vec<(u32, u32)> = (0..40).map(|i| (i, i + 1)).collect();
        let mut m = ClientModel::new(
            &edges,
            41,
            0,
            1,
            Mix {
                updates: 1,
                queries: 0,
            },
            1,
        );
        let op = m.next_op();
        m.failed(op);
        assert_eq!(m.present.len(), 40);
        assert!(m.deleted.is_empty());
    }
}
