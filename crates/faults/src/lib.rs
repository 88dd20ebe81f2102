//! Deterministic fault injection for PAS2P traces.
//!
//! The paper's data-collection stage (§3.1) assumes every rank delivers a
//! complete, well-formed tracefile. Real instrumented runs do not: nodes
//! die mid-flush (truncated files), disks and interconnects corrupt
//! records, whole ranks never report, buggy tracers emit an event twice,
//! and unsynchronized clocks skew one rank against the rest. This crate
//! reproduces those failure modes *deterministically*: a [`FaultPlan`] is
//! a seed plus an ordered list of [`FaultKind`]s, and applying the same
//! plan to the same trace always yields the same bytes — mirroring how
//! the batch driver made parallelism deterministic. That property is what
//! lets a fault matrix run in CI and produce byte-identical reports for
//! any worker count.
//!
//! Faults split into two groups. *Stream faults* ([`FaultKind::DropRank`],
//! [`FaultKind::DuplicateEvents`], [`FaultKind::SkewClock`]) act on the
//! [`Trace`] before encoding — they model a producer-side failure.
//! *Byte faults* ([`FaultKind::Truncate`], [`FaultKind::CorruptBits`])
//! act on the encoded buffer — they model a transport/storage failure.
//! [`FaultPlan::inject`] applies both groups in plan order around one
//! [`pas2p_trace::format::encode`] call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pas2p_obs::Counter;
use pas2p_trace::{format, Trace};
use serde::{Deserialize, Serialize};

static PLANS_APPLIED: Counter = Counter::new("fault.plans_applied");
static TRUNCATED_BYTES: Counter = Counter::new("fault.truncated_bytes");
static BITS_FLIPPED: Counter = Counter::new("fault.bits_flipped");
static RANKS_DROPPED: Counter = Counter::new("fault.ranks_dropped");
static EVENTS_DUPLICATED: Counter = Counter::new("fault.events_duplicated");
static CLOCKS_SKEWED: Counter = Counter::new("fault.clocks_skewed");

pub mod chaos;
pub mod store_io;

pub use chaos::{chaos_plan, ChaosBehavior, ChaosPlan};
pub use store_io::{FaultStoreIo, StoreFaultKind, StoreFaultStats, StoreOp};

/// A tiny deterministic PRNG (splitmix64). The crate deliberately avoids
/// a `rand` dependency: fault injection must be reproducible from the
/// plan alone, and splitmix64's whole state is its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }
}

/// One injected failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Keep only the first `keep_per_mille`/1000 of the encoded buffer —
    /// a tracer killed mid-flush. `keep_per_mille` ≥ 1000 is a no-op.
    Truncate {
        /// Surviving prefix length in per-mille of the buffer.
        keep_per_mille: u32,
    },
    /// Flip `flips` uniformly chosen bits in the event-record region of
    /// the buffer (the header is left alone; header loss is modeled by
    /// [`FaultKind::Truncate`] instead).
    CorruptBits {
        /// Number of single-bit flips to apply.
        flips: u32,
    },
    /// Remove rank `rank`'s whole section — the rank never reported.
    DropRank {
        /// Rank whose trace section is dropped.
        rank: u32,
    },
    /// Re-emit `copies` randomly chosen events of `rank` immediately
    /// after their original — a double-logging tracer bug. The copies
    /// keep their original event numbers, so per-rank numbering becomes
    /// non-monotone (exactly what a real duplicate looks like).
    DuplicateEvents {
        /// Rank whose stream gains duplicates.
        rank: u32,
        /// How many events are duplicated.
        copies: u32,
    },
    /// Add `seconds` to every timestamp of `rank` — an unsynchronized
    /// node clock.
    SkewClock {
        /// Rank whose clock drifts.
        rank: u32,
        /// Drift in virtual seconds (may be negative).
        seconds: f64,
    },
}

impl FaultKind {
    /// Short stable label for reports and job names.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Truncate { .. } => "truncate",
            FaultKind::CorruptBits { .. } => "corrupt",
            FaultKind::DropRank { .. } => "drop-rank",
            FaultKind::DuplicateEvents { .. } => "duplicate",
            FaultKind::SkewClock { .. } => "skew-clock",
        }
    }
}

/// What a plan actually did to one trace — every count is deterministic
/// in (plan, trace).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    /// Bytes cut off the end of the buffer.
    pub bytes_truncated: u64,
    /// Single-bit flips applied.
    pub bits_flipped: u64,
    /// Rank sections removed.
    pub ranks_dropped: u64,
    /// Events re-emitted.
    pub events_duplicated: u64,
    /// Ranks whose clocks were skewed.
    pub clocks_skewed: u64,
}

impl FaultLog {
    /// One deterministic summary line.
    pub fn render(&self) -> String {
        format!(
            "truncated={}B flipped={} dropped={} duplicated={} skewed={}",
            self.bytes_truncated,
            self.bits_flipped,
            self.ranks_dropped,
            self.events_duplicated,
            self.clocks_skewed
        )
    }
}

/// A seeded, ordered list of faults. Applying the same plan to the same
/// trace is reproducible byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// PRNG seed all random choices derive from.
    pub seed: u64,
    /// Faults, applied in order.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan with `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Append a fault (builder style).
    pub fn with(mut self, fault: FaultKind) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Deterministic one-line description, e.g. `seed=42 truncate corrupt`.
    pub fn describe(&self) -> String {
        let mut s = format!("seed={}", self.seed);
        for f in &self.faults {
            s.push(' ');
            s.push_str(f.label());
        }
        s
    }

    /// Apply the stream faults to a clone of `trace`.
    pub fn apply_trace(&self, trace: &Trace, log: &mut FaultLog) -> Trace {
        let mut rng = SplitMix64::new(self.seed);
        let mut out = trace.clone();
        for fault in &self.faults {
            match *fault {
                FaultKind::DropRank { rank } => {
                    let before = out.procs.len();
                    out.procs.retain(|p| p.process != rank);
                    log.ranks_dropped += (before - out.procs.len()) as u64;
                }
                FaultKind::DuplicateEvents { rank, copies } => {
                    if let Some(p) = out.procs.iter_mut().find(|p| p.process == rank) {
                        for _ in 0..copies {
                            if p.events.is_empty() {
                                break;
                            }
                            let i = rng.below(p.events.len() as u64) as usize;
                            let dup = p.events[i].clone();
                            p.events.insert(i + 1, dup);
                            log.events_duplicated += 1;
                        }
                    }
                }
                FaultKind::SkewClock { rank, seconds } => {
                    if let Some(p) = out.procs.iter_mut().find(|p| p.process == rank) {
                        for e in &mut p.events {
                            e.t_post += seconds;
                            e.t_complete += seconds;
                        }
                        p.end_time += seconds;
                        log.clocks_skewed += 1;
                    }
                }
                // Byte faults are applied by `apply_bytes`.
                FaultKind::Truncate { .. } | FaultKind::CorruptBits { .. } => {}
            }
        }
        out
    }

    /// Apply the byte faults to `buf`. `record_region_start` bounds bit
    /// flips away from the header (pass 0 to allow flips anywhere).
    pub fn apply_bytes(&self, buf: &mut Vec<u8>, record_region_start: usize, log: &mut FaultLog) {
        // An independent stream from the same seed: byte faults must not
        // depend on how many random draws the stream faults consumed.
        let mut rng = SplitMix64::new(self.seed ^ 0xb5ad4eceda1ce2a9);
        for fault in &self.faults {
            match *fault {
                FaultKind::Truncate { keep_per_mille } => {
                    if keep_per_mille < 1000 {
                        let keep = (buf.len() as u64 * keep_per_mille as u64 / 1000) as usize;
                        log.bytes_truncated += (buf.len() - keep) as u64;
                        buf.truncate(keep);
                    }
                }
                FaultKind::CorruptBits { flips } => {
                    let lo = record_region_start.min(buf.len());
                    let span = buf.len() - lo;
                    if span == 0 {
                        continue;
                    }
                    for _ in 0..flips {
                        let byte = lo + rng.below(span as u64) as usize;
                        let bit = rng.below(8) as u8;
                        buf[byte] ^= 1 << bit;
                        log.bits_flipped += 1;
                    }
                }
                FaultKind::DropRank { .. }
                | FaultKind::DuplicateEvents { .. }
                | FaultKind::SkewClock { .. } => {}
            }
        }
    }

    /// The whole injection: stream faults on the trace, encode, byte
    /// faults on the buffer. Returns the faulted buffer and what was done.
    pub fn inject(&self, trace: &Trace) -> (Vec<u8>, FaultLog) {
        let mut log = FaultLog::default();
        let faulted = self.apply_trace(trace, &mut log);
        let mut buf = format::encode(&faulted);
        // The fixed-size header plus machine name; flips land in the
        // per-process sections so the file stays recognizably a trace.
        let header = 8 + 4 + 4 + 4 + faulted.machine.len();
        self.apply_bytes(&mut buf, header, &mut log);
        PLANS_APPLIED.inc();
        TRUNCATED_BYTES.add(log.bytes_truncated);
        BITS_FLIPPED.add(log.bits_flipped);
        RANKS_DROPPED.add(log.ranks_dropped);
        EVENTS_DUPLICATED.add(log.events_duplicated);
        CLOCKS_SKEWED.add(log.clocks_skewed);
        (buf, log)
    }
}

/// The canonical CI fault matrix: one plan per failure family, all
/// derived from `seed`. Matches the acceptance scenario (truncation,
/// corruption, dropped rank, duplicate events).
pub fn fault_matrix(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "truncate",
            FaultPlan::new(seed).with(FaultKind::Truncate {
                keep_per_mille: 850,
            }),
        ),
        (
            "corrupt",
            FaultPlan::new(seed.wrapping_add(1)).with(FaultKind::CorruptBits { flips: 128 }),
        ),
        (
            "drop-rank",
            FaultPlan::new(seed.wrapping_add(2)).with(FaultKind::DropRank { rank: 1 }),
        ),
        (
            "duplicate",
            FaultPlan::new(seed.wrapping_add(3))
                .with(FaultKind::DuplicateEvents { rank: 0, copies: 3 }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_trace::{EventKind, ProcessTrace, TraceEvent};

    fn trace(nprocs: u32, events_per_rank: usize) -> Trace {
        let procs = (0..nprocs)
            .map(|r| ProcessTrace {
                process: r,
                events: (0..events_per_rank)
                    .map(|i| TraceEvent {
                        number: i as u64,
                        process: r,
                        t_post: i as f64,
                        t_complete: i as f64 + 0.5,
                        kind: if i % 2 == 0 {
                            EventKind::Send
                        } else {
                            EventKind::Recv
                        },
                        peer: Some((r + 1) % nprocs),
                        tag: 1,
                        size: 64,
                        involved: 1,
                        msg_id: (r as u64) << 32 | i as u64,
                        comm_id: 0,
                        wildcard: false,
                    })
                    .collect(),
                end_time: events_per_rank as f64,
            })
            .collect();
        Trace {
            nprocs,
            machine: "cluster-A".into(),
            procs,
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        assert!(SplitMix64::new(8).next_u64() != xs[0]);
    }

    #[test]
    fn same_plan_same_trace_same_bytes() {
        let t = trace(4, 20);
        let plan = FaultPlan::new(42)
            .with(FaultKind::CorruptBits { flips: 32 })
            .with(FaultKind::Truncate {
                keep_per_mille: 900,
            });
        let (a, la) = plan.inject(&t);
        let (b, lb) = plan.inject(&t);
        assert_eq!(a, b, "injection must be byte-for-byte reproducible");
        assert_eq!(la, lb);
        let (c, _) = FaultPlan {
            seed: 43,
            ..plan.clone()
        }
        .inject(&t);
        assert_ne!(a, c, "a different seed must flip different bits");
    }

    #[test]
    fn truncate_cuts_the_tail() {
        let t = trace(2, 10);
        let clean = format::encode(&t);
        let plan = FaultPlan::new(1).with(FaultKind::Truncate {
            keep_per_mille: 500,
        });
        let (buf, log) = plan.inject(&t);
        assert_eq!(buf.len(), clean.len() / 2);
        assert_eq!(log.bytes_truncated as usize, clean.len() - buf.len());
        assert_eq!(buf[..], clean[..buf.len()]);
    }

    #[test]
    fn corrupt_leaves_header_intact() {
        let t = trace(2, 10);
        let clean = format::encode(&t);
        let plan = FaultPlan::new(9).with(FaultKind::CorruptBits { flips: 64 });
        let (buf, log) = plan.inject(&t);
        assert_eq!(log.bits_flipped, 64);
        let header = 8 + 4 + 4 + 4 + t.machine.len();
        assert_eq!(buf[..header], clean[..header], "header must stay clean");
        assert_ne!(buf[header..], clean[header..]);
    }

    #[test]
    fn drop_rank_removes_its_section() {
        let t = trace(4, 5);
        let mut log = FaultLog::default();
        let out = FaultPlan::new(0)
            .with(FaultKind::DropRank { rank: 2 })
            .apply_trace(&t, &mut log);
        assert_eq!(out.procs.len(), 3);
        assert!(out.procs.iter().all(|p| p.process != 2));
        assert_eq!(out.nprocs, 4, "the header still claims every rank");
        assert_eq!(log.ranks_dropped, 1);
    }

    #[test]
    fn duplicates_keep_original_numbers() {
        let t = trace(2, 8);
        let mut log = FaultLog::default();
        let out = FaultPlan::new(5)
            .with(FaultKind::DuplicateEvents { rank: 0, copies: 2 })
            .apply_trace(&t, &mut log);
        let p = &out.procs[0];
        assert_eq!(p.events.len(), 10);
        assert_eq!(log.events_duplicated, 2);
        // At least one adjacent pair shares an event number.
        assert!(p.events.windows(2).any(|w| w[0].number == w[1].number));
    }

    #[test]
    fn skew_shifts_all_times_of_one_rank() {
        let t = trace(2, 4);
        let mut log = FaultLog::default();
        let out = FaultPlan::new(0)
            .with(FaultKind::SkewClock {
                rank: 1,
                seconds: 2.5,
            })
            .apply_trace(&t, &mut log);
        assert_eq!(log.clocks_skewed, 1);
        for (a, b) in t.procs[1].events.iter().zip(&out.procs[1].events) {
            assert!((b.t_post - a.t_post - 2.5).abs() < 1e-12);
            assert!((b.t_complete - a.t_complete - 2.5).abs() < 1e-12);
        }
        assert_eq!(out.procs[0], t.procs[0]);
    }

    #[test]
    fn matrix_covers_the_acceptance_families() {
        let m = fault_matrix(42);
        let labels: Vec<&str> = m.iter().map(|(n, _)| *n).collect();
        assert_eq!(labels, ["truncate", "corrupt", "drop-rank", "duplicate"]);
        // Distinct seeds so the corrupt plan cannot shadow the truncate.
        let mut seeds: Vec<u64> = m.iter().map(|(_, p)| p.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }
}
