//! Seeded connection-chaos plans for the prediction service.
//!
//! A chaos plan assigns each of K concurrent clients a *behavior* — a
//! clean request, a mid-request disconnect, a slow-loris drip, or a
//! garbage frame — derived deterministically from a seed, mirroring how
//! [`crate::fault_matrix`] seeds trace faults. The plan itself is pure
//! data: this crate cannot depend on `pas2p-core` (the dependency runs
//! the other way), so the soak test interprets each behavior against a
//! live socket while the plan stays reproducible and serializable.
//!
//! The service contract under chaos is the issue's acceptance bar: a
//! misbehaving client may get its own connection dropped or an `invalid`
//! response, but it must never wedge a worker, starve other clients, or
//! tear the store.

use serde::{Deserialize, Serialize};

use crate::SplitMix64;

/// How one chaos client behaves on its connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosBehavior {
    /// A well-behaved client: send the request line, read the response.
    Clean,
    /// Send only the first `after_bytes` bytes of the request, then
    /// close the socket — a client killed mid-request.
    Disconnect {
        /// Bytes of the request written before the hangup.
        after_bytes: usize,
    },
    /// Send the request `chunk` bytes at a time with `delay_ms` pauses —
    /// a slow-loris client that must not hold a worker hostage.
    SlowLoris {
        /// Bytes per drip.
        chunk: usize,
        /// Pause between drips, in milliseconds.
        delay_ms: u64,
    },
    /// Send a frame that is not a request at all; the service must
    /// answer with a classified `invalid` error, not die.
    Garbage {
        /// The garbage line (newline appended by the client).
        line: String,
    },
}

impl ChaosBehavior {
    /// Short stable label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosBehavior::Clean => "clean",
            ChaosBehavior::Disconnect { .. } => "disconnect",
            ChaosBehavior::SlowLoris { .. } => "slow-loris",
            ChaosBehavior::Garbage { .. } => "garbage",
        }
    }
}

/// A seeded assignment of behaviors to `clients.len()` concurrent
/// clients. Same seed + same client count = same plan, always.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed every choice derives from.
    pub seed: u64,
    /// Behavior of client `i`, in spawn order.
    pub clients: Vec<ChaosBehavior>,
}

impl ChaosPlan {
    /// Deterministic one-line description, e.g.
    /// `seed=7 clean disconnect garbage clean`.
    pub fn describe(&self) -> String {
        let mut s = format!("seed={}", self.seed);
        for c in &self.clients {
            s.push(' ');
            s.push_str(c.label());
        }
        s
    }

    /// Count of clients with each behavior: `(clean, disconnect,
    /// slow_loris, garbage)`.
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut census = (0, 0, 0, 0);
        for c in &self.clients {
            match c {
                ChaosBehavior::Clean => census.0 += 1,
                ChaosBehavior::Disconnect { .. } => census.1 += 1,
                ChaosBehavior::SlowLoris { .. } => census.2 += 1,
                ChaosBehavior::Garbage { .. } => census.3 += 1,
            }
        }
        census
    }
}

/// Build the plan for `clients` concurrent chaos clients from `seed`.
///
/// At least half the clients are clean (the soak needs enough real
/// traffic to assert warm-vs-cold byte identity); the rest cycle
/// through the three misbehaviors with seeded parameters. Slow-loris
/// delays are kept small (≤ 20ms per drip) so a CI soak stays bounded.
pub fn chaos_plan(seed: u64, clients: usize) -> ChaosPlan {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(clients);
    for i in 0..clients {
        // Even slots stay clean; odd slots misbehave in seeded order.
        if i % 2 == 0 {
            out.push(ChaosBehavior::Clean);
            continue;
        }
        let behavior = match rng.below(3) {
            0 => ChaosBehavior::Disconnect {
                // Cut inside the frame: after the opening brace but
                // before any plausible frame end.
                after_bytes: 1 + rng.below(24) as usize,
            },
            1 => ChaosBehavior::SlowLoris {
                chunk: 1 + rng.below(4) as usize,
                delay_ms: 5 + rng.below(16),
            },
            _ => ChaosBehavior::Garbage {
                line: match rng.below(3) {
                    0 => "this is not json".to_string(),
                    1 => "{\"op\":\"predict\"".to_string(), // unterminated
                    _ => format!("{{\"op\":\"warp-core-breach\",\"n\":{}}}", rng.below(999)),
                },
            },
        };
        out.push(behavior);
    }
    ChaosPlan { seed, clients: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let a = chaos_plan(42, 8);
        let b = chaos_plan(42, 8);
        let c = chaos_plan(43, 8);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.clients.len(), 8);
    }

    #[test]
    fn at_least_half_the_clients_are_clean() {
        for seed in [0, 1, 7, 42, 1234] {
            let plan = chaos_plan(seed, 10);
            let (clean, ..) = plan.census();
            assert!(clean >= 5, "seed {seed}: {}", plan.describe());
        }
    }

    #[test]
    fn describe_names_every_behavior() {
        let plan = ChaosPlan {
            seed: 9,
            clients: vec![
                ChaosBehavior::Clean,
                ChaosBehavior::Disconnect { after_bytes: 3 },
                ChaosBehavior::SlowLoris {
                    chunk: 1,
                    delay_ms: 5,
                },
                ChaosBehavior::Garbage { line: "x".into() },
            ],
        };
        assert_eq!(
            plan.describe(),
            "seed=9 clean disconnect slow-loris garbage"
        );
        assert_eq!(plan.census(), (1, 1, 1, 1));
    }
}
