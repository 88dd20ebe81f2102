//! Stress of the park/wake protocol: seeded random programs run many
//! times under perturbed thread schedules must produce identical virtual
//! clocks and identical receive logs, and must never hang (the waits are
//! untimed, so a lost wake-up would show as a hang — turned into a test
//! failure by the watchdog below).

use parking_lot::Mutex;
use pas2p_machine::{cluster_a, MappingPolicy, Work};
use pas2p_mpisim::{run_app, Group, Mpi, RankCtx, ReduceOp, SimConfig};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One rank's share of a program step.
#[derive(Debug, Clone)]
enum Op {
    Compute(f64),
    Send {
        dest: u32,
        tag: u32,
        bytes: usize,
    },
    Recv {
        src: Option<u32>,
        tag: u32,
    },
    Allreduce,
    BarrierIn(Vec<u32>),
    /// A barrier outside the `Mpi` interface, like the checkpoint
    /// coordinator's.
    External,
}

/// A random program for 2–6 ranks, one op list per rank. Every step is
/// placed in one global order and each rank runs its share in that
/// order; sends are eager, so the program cannot deadlock. Wildcard
/// receives come in gathers with a tag of their own, so a wildcard can
/// only take a message of its own step — which of them first is the
/// simulator's decision under test.
fn program(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix64(seed);
    let n = 2 + rng.below(5) as u32;
    let mut ops = vec![Vec::new(); n as usize];
    for step in 0..(12 + rng.below(20)) as u32 {
        let tag = 100 + step;
        match rng.below(8) {
            0 | 1 => {
                let src = rng.below(u64::from(n)) as u32;
                let dest = rng.below(u64::from(n)) as u32;
                let bytes = 1 << rng.below(12);
                ops[src as usize].push(Op::Compute(1e6 * (1 + rng.below(50)) as f64));
                ops[src as usize].push(Op::Send { dest, tag, bytes });
                ops[dest as usize].push(Op::Recv {
                    src: Some(src),
                    tag,
                });
            }
            2..=4 => {
                // A gather into `dest` through wildcard receives. Equal
                // compute before some sends makes departure ties likely.
                let dest = rng.below(u64::from(n)) as u32;
                let coarse = rng.below(2) == 0;
                let mut senders = 0;
                for src in (0..n).filter(|&r| r != dest) {
                    if rng.below(4) == 0 {
                        continue;
                    }
                    let units = if coarse {
                        1 + rng.below(2)
                    } else {
                        1 + rng.below(40)
                    };
                    ops[src as usize].push(Op::Compute(1e7 * units as f64));
                    ops[src as usize].push(Op::Send {
                        dest,
                        tag,
                        bytes: 64,
                    });
                    senders += 1;
                }
                for _ in 0..senders {
                    ops[dest as usize].push(Op::Recv { src: None, tag });
                }
            }
            5 => ops.iter_mut().for_each(|o| o.push(Op::Allreduce)),
            6 => {
                let members: Vec<u32> = (0..n).filter(|_| rng.below(2) == 0).collect();
                for &m in &members {
                    ops[m as usize].push(Op::BarrierIn(members.clone()));
                }
            }
            _ => ops.iter_mut().for_each(|o| o.push(Op::External)),
        }
    }
    ops
}

/// The out-of-band barrier the `External` op uses: state under a mutex,
/// waiting and waking through the run's own protocol.
struct ExternalBarrier {
    n: u32,
    /// (arrived, generation)
    state: Mutex<(u32, u64)>,
}

impl ExternalBarrier {
    fn wait(&self, ctx: &mut RankCtx) {
        let my_gen = {
            let mut st = self.state.lock();
            st.0 += 1;
            if st.0 == self.n {
                *st = (0, st.1 + 1);
                drop(st);
                for r in (0..self.n).filter(|&r| r != ctx.rank()) {
                    ctx.wake(r);
                }
                return;
            }
            st.1
        };
        ctx.park_until("the test's external barrier", || {
            self.state.lock().1 != my_gen
        });
    }
}

/// Run `prog` once. `jitter` seeds the schedule perturbation: a yield or
/// a short sleep before some `Mpi` calls. Returns the final rank clocks
/// and every rank's log (each receive's match and each op's completion
/// clock), rank after rank.
fn run_once(prog: &[Vec<Op>], jitter: u64) -> (Vec<f64>, Vec<u8>) {
    let n = prog.len() as u32;
    let cfg = SimConfig::new(cluster_a(), n, MappingPolicy::Block);
    let barrier = ExternalBarrier {
        n,
        state: Mutex::new((0, 0)),
    };
    let logs: Vec<Mutex<Vec<u8>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let report = run_app(&cfg, |ctx| {
        let rank = ctx.rank();
        let mut rng = SplitMix64(jitter ^ (u64::from(rank) << 32));
        let mut log = Vec::new();
        for op in &prog[rank as usize] {
            match rng.below(16) {
                0 => std::thread::sleep(Duration::from_micros(20 + rng.below(200))),
                1..=5 => std::thread::yield_now(),
                _ => {}
            }
            match op {
                Op::Compute(flops) => ctx.compute(Work::flops(*flops)),
                Op::Send { dest, tag, bytes } => {
                    ctx.send(*dest, *tag, &vec![rank as u8; *bytes]);
                }
                Op::Recv { src, tag } => {
                    let m = ctx.recv(*src, Some(*tag));
                    log.extend_from_slice(&m.src.to_le_bytes());
                    log.extend_from_slice(&m.msg_id.to_le_bytes());
                    log.extend_from_slice(&m.depart.to_bits().to_le_bytes());
                }
                Op::Allreduce => {
                    let sum = ctx.allreduce_f64(&[ctx.now()], ReduceOp::Sum);
                    log.extend_from_slice(&sum[0].to_bits().to_le_bytes());
                }
                Op::BarrierIn(members) => ctx.barrier_in(&Group::new(members.clone())),
                Op::External => barrier.wait(ctx),
            }
            log.extend_from_slice(&ctx.now().to_bits().to_le_bytes());
        }
        *logs[rank as usize].lock() = log;
    });
    assert!(!report.aborted);
    let log = logs.into_iter().flat_map(|l| l.into_inner()).collect();
    (report.rank_clocks, log)
}

/// Run `f` on its own thread and fail, instead of hanging, if it does
/// not come back.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what}: no result within {limit:?} (lost wake-up or panic)"))
}

#[test]
fn random_programs_are_schedule_independent() {
    for seed in 1..=16u64 {
        let prog = Arc::new(program(seed));
        let (clocks, log) = {
            let prog = prog.clone();
            within(Duration::from_secs(60), "reference run", move || {
                run_once(&prog, 0)
            })
        };
        assert!(!log.is_empty());
        for rep in 1..50u64 {
            let prog = prog.clone();
            let got = within(Duration::from_secs(60), "perturbed run", move || {
                run_once(&prog, seed * 1000 + rep)
            });
            assert_eq!(got.0, clocks, "seed {seed} rep {rep}: rank clocks differ");
            assert_eq!(got.1, log, "seed {seed} rep {rep}: receive logs differ");
        }
    }
}

#[test]
fn only_the_smallest_of_two_parked_wildcards_commits() {
    // Ranks 0 and 1 both sit in a wildcard receive. Rank 2's message to
    // rank 0 departs at t≈1 s, rank 3's to rank 1 at t≈2 s, and both
    // senders then block. At that quiescence only rank 0 may commit: it
    // goes on to send rank 1 a message that departs *before* the one rank
    // 1 already holds, and rank 1 must match that one first.
    let run = || {
        let cfg = SimConfig::new(cluster_a(), 4, MappingPolicy::Block);
        let order = Mutex::new(Vec::new());
        let report = run_app(&cfg, |ctx| match ctx.rank() {
            0 => {
                assert_eq!(ctx.recv(None, None).src, 2);
                ctx.send(1, 1, b"early");
                ctx.send(2, 2, b"release");
            }
            1 => {
                for _ in 0..2 {
                    let m = ctx.recv(None, None);
                    order.lock().push((m.src, m.depart.to_bits()));
                }
                ctx.send(3, 2, b"release");
            }
            rank => {
                let seconds = f64::from(rank - 1);
                ctx.compute(Work::flops(1.9e9 * seconds));
                ctx.send(rank - 2, 1, b"late");
                ctx.recv(Some(rank - 2), Some(2));
            }
        });
        (order.into_inner(), report.rank_clocks)
    };
    let first = within(Duration::from_secs(60), "directed run", run);
    let sources: Vec<u32> = first.0.iter().map(|(src, _)| *src).collect();
    assert_eq!(sources, vec![0, 3]);
    for _ in 0..50 {
        assert_eq!(within(Duration::from_secs(60), "directed run", run), first);
    }
}
