//! Integration tests for the message-passing runtime.

use pas2p_machine::{cluster_a, cluster_b, cluster_c, JitterModel, MappingPolicy, Work};
use pas2p_mpisim::{
    run_app, Counters, Group, HarnessAction, Mpi, ReduceOp, RunReport, SimConfig, SimHarness,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn quiet_machine() -> pas2p_machine::MachineModel {
    let mut m = cluster_a();
    m.jitter = JitterModel::none();
    m
}

fn run4<F>(f: F) -> RunReport
where
    F: Fn(&mut pas2p_mpisim::RankCtx) + Send + Sync,
{
    let cfg = SimConfig::new(quiet_machine(), 4, MappingPolicy::Block);
    run_app(&cfg, f)
}

#[test]
fn ping_pong_delivers_payload() {
    run4(|ctx| match ctx.rank() {
        0 => {
            ctx.send(1, 7, b"ping");
            let m = ctx.recv(Some(1), Some(8));
            assert_eq!((m.len, m.src, m.dest), (5, 1, 0));
        }
        1 => {
            let m = ctx.recv(Some(0), Some(7));
            assert_eq!((m.len, m.src, m.dest), (4, 0, 1));
            ctx.send(0, 8, b"pong!");
        }
        _ => {}
    });
}

#[test]
fn virtual_clock_advances_through_communication() {
    let r = run4(|ctx| {
        if ctx.rank() == 0 {
            ctx.compute(Work::flops(1e9));
            ctx.send(3, 1, &vec![0u8; 1 << 20]);
        } else if ctx.rank() == 3 {
            let m = ctx.recv(Some(0), Some(1));
            // The receive completes after the send departed plus wire time.
            assert!(m.arrive > m.depart);
        }
    });
    // Rank 3 inherits rank 0's compute time through the message.
    assert!(r.rank_clocks[3] > 0.5, "clock {}", r.rank_clocks[3]);
}

#[test]
fn recv_any_source_matches_earliest_departure() {
    // Ranks 1..4 send to rank 0 after different compute delays; the
    // wildcard receives should observe sources ordered by departure time.
    let r = run4(|ctx| {
        let rank = ctx.rank();
        if rank == 0 {
            let mut sources = Vec::new();
            for _ in 0..3 {
                let m = ctx.recv(None, None);
                sources.push((m.depart, m.src));
            }
            let mut sorted = sources.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(sources, sorted, "wildcard receives out of depart order");
        } else {
            // rank r departs at ~r seconds of virtual time
            ctx.compute(Work::flops(1.9e9 * rank as f64));
            ctx.send(0, 5, &[rank as u8]);
        }
    });
    assert_eq!(r.total_msgs, 3);
}

#[test]
fn a_stalled_sender_is_running_not_parked() {
    // Rank 1's thread stalls for 250 ms of *wall* time before it sends at
    // virtual t≈1 s; rank 2 sends at t≈2 s and then blocks on rank 0. A
    // rank that sleeps is running, not parked, so however long the stall,
    // the run is not quiescent and rank 2's message must not be matched
    // first.
    let run = || {
        let sources = parking_lot_mutex_vec();
        let log = parking_lot::Mutex::new(Vec::<u8>::new());
        let r = run4(|ctx| match ctx.rank() {
            0 => {
                for _ in 0..2 {
                    let m = ctx.recv(None, None);
                    sources.lock().push(u64::from(m.src));
                    let mut log = log.lock();
                    log.extend_from_slice(&m.msg_id.to_le_bytes());
                    log.extend_from_slice(&m.depart.to_bits().to_le_bytes());
                    log.extend_from_slice(&m.arrive.to_bits().to_le_bytes());
                }
                ctx.send(2, 9, b"go");
            }
            1 => {
                std::thread::sleep(std::time::Duration::from_millis(250));
                ctx.compute(Work::flops(1.9e9));
                ctx.send(0, 5, b"one");
            }
            2 => {
                ctx.compute(Work::flops(2.0 * 1.9e9));
                ctx.send(0, 5, b"two");
                ctx.recv(Some(0), Some(9));
            }
            _ => {}
        });
        (sources.into_inner(), log.into_inner(), r.rank_clocks)
    };
    let first = run();
    assert_eq!(first.0, vec![1, 2], "matched in departure order");
    for _ in 1..20 {
        assert_eq!(run(), first);
    }
}

#[test]
fn an_application_deadlock_is_reported_not_hung() {
    // Each rank receives from the other and nobody sends.
    let cfg = SimConfig::new(quiet_machine(), 2, MappingPolicy::Block);
    let started = std::time::Instant::now();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_app(&cfg, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.recv(Some(peer), Some(3));
        })
    }))
    .expect_err("a deadlocked run must panic");
    assert!(started.elapsed() < std::time::Duration::from_secs(1));
    let report = payload
        .downcast_ref::<String>()
        .expect("the panic carries the report");
    assert!(
        report.contains("rank 0 in recv(src=Some(1), tag=Some(3))")
            && report.contains("rank 1 in recv(src=Some(0), tag=Some(3))"),
        "{report}"
    );
}

#[test]
fn a_rank_that_returns_leaves_its_waiter_deadlocked() {
    let cfg = SimConfig::new(quiet_machine(), 2, MappingPolicy::Block);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_app(&cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.barrier_in(&Group::new(vec![0]));
                ctx.recv(None, None);
            }
        })
    }))
    .expect_err("nobody can ever send to rank 0");
    let report = payload.downcast_ref::<String>().expect("report");
    assert!(
        report.contains("rank 0 in recv(src=None, tag=None)") && report.contains("rank 1 finished"),
        "{report}"
    );
}

#[test]
fn allreduce_agrees_across_ranks() {
    run4(|ctx| {
        let x = (ctx.rank() + 1) as f64;
        let sum = ctx.allreduce_f64(&[x, 2.0 * x], ReduceOp::Sum);
        assert_eq!(sum, vec![10.0, 20.0]);
        let max = ctx.allreduce_f64(&[x], ReduceOp::Max);
        assert_eq!(max, vec![4.0]);
    });
}

#[test]
fn collectives_synchronize_clocks() {
    let r = run4(|ctx| {
        if ctx.rank() == 2 {
            ctx.compute(Work::flops(1.9e9 * 3.0)); // ~3 s
        }
        ctx.barrier();
        // Everyone leaves the barrier no earlier than the slowest rank.
        assert!(ctx.now() >= 3.0, "rank {} at {}", ctx.rank(), ctx.now());
    });
    for c in &r.rank_clocks {
        assert!(*c >= 3.0);
    }
}

#[test]
fn bcast_from_nonzero_root() {
    run4(|ctx| {
        let out = ctx.bcast(2, (ctx.rank() == 2).then_some(5));
        assert_eq!(out, 5);
    });
}

#[test]
fn gather_and_scatter_roundtrip() {
    run4(|ctx| {
        // A block's length is its sender's rank plus one.
        let gathered = ctx.gather(0, ctx.rank() as usize + 1);
        if ctx.rank() == 0 {
            let blocks = gathered.unwrap();
            assert_eq!(blocks, [1, 2, 3, 4]);
            let back = ctx.scatter(0, Some(blocks));
            assert_eq!(back, 1);
        } else {
            assert!(gathered.is_none());
            let back = ctx.scatter(0, None);
            assert_eq!(back, ctx.rank() as usize + 1);
        }
    });
}

#[test]
fn alltoall_transposes() {
    run4(|ctx| {
        // Block `10 * from + to` goes from rank `from` to rank `to`.
        let rank = ctx.rank() as usize;
        let got = ctx.alltoall((0..4).map(|d| 10 * rank + d).collect());
        for (s, &b) in got.iter().enumerate() {
            assert_eq!(b, 10 * s + rank, "block from rank {}", s);
        }
    });
}

#[test]
fn allgather_orders_by_rank() {
    run4(|ctx| {
        let got = ctx.allgather(ctx.rank() as usize * 10);
        assert_eq!(got, vec![0, 10, 20, 30]);
    });
}

#[test]
fn subgroup_collectives_are_independent() {
    run4(|ctx| {
        let rank = ctx.rank();
        let g = if rank < 2 {
            Group::new(vec![0, 1])
        } else {
            Group::new(vec![2, 3])
        };
        let sum = ctx.allreduce_f64_in(&g, &[rank as f64], ReduceOp::Sum);
        if rank < 2 {
            assert_eq!(sum, vec![1.0]);
        } else {
            assert_eq!(sum, vec![5.0]);
        }
    });
}

#[test]
fn grid_row_and_column_groups() {
    run4(|ctx| {
        // 2x2 grid.
        let row = Group::grid_row(ctx.rank(), 2, 2);
        let col = Group::grid_col(ctx.rank(), 2, 2);
        let rsum = ctx.allreduce_f64_in(&row, &[1.0], ReduceOp::Sum);
        let csum = ctx.allreduce_f64_in(&col, &[1.0], ReduceOp::Sum);
        assert_eq!(rsum, vec![2.0]);
        assert_eq!(csum, vec![2.0]);
    });
}

#[test]
fn counters_track_events() {
    run4(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, b"x");
        } else if ctx.rank() == 1 {
            ctx.recv(Some(0), Some(0));
        }
        ctx.barrier();
        let c = ctx.counters();
        assert_eq!(c.colls, 1);
        match ctx.rank() {
            0 => assert_eq!((c.sends, c.recvs), (1, 0)),
            1 => assert_eq!((c.sends, c.recvs), (0, 1)),
            _ => assert_eq!((c.sends, c.recvs), (0, 0)),
        }
    });
}

#[test]
fn run_is_deterministic_with_same_seed() {
    let run = || {
        let cfg = SimConfig::new(cluster_b(), 8, MappingPolicy::Block);
        run_app(&cfg, |ctx| {
            let n = ctx.size();
            let next = (ctx.rank() + 1) % n;
            let prev = (ctx.rank() + n - 1) % n;
            for _ in 0..20 {
                ctx.compute(Work::new(1e7, 1e6));
                ctx.send(next, 1, &vec![1u8; 4096]);
                ctx.recv(Some(prev), Some(1));
                ctx.allreduce_f64(&[1.0], ReduceOp::Sum);
            }
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.rank_clocks, b.rank_clocks);
    assert_eq!(a.makespan, b.makespan);
}

#[test]
fn different_machines_produce_different_times() {
    let prog = |ctx: &mut pas2p_mpisim::RankCtx| {
        let n = ctx.size();
        let next = (ctx.rank() + 1) % n;
        let prev = (ctx.rank() + n - 1) % n;
        for _ in 0..10 {
            ctx.compute(Work::flops(1e8));
            ctx.send(next, 1, &vec![1u8; 1 << 16]);
            ctx.recv(Some(prev), Some(1));
        }
    };
    let ra = run_app(&SimConfig::new(cluster_a(), 16, MappingPolicy::Block), prog);
    let rc = run_app(&SimConfig::new(cluster_c(), 16, MappingPolicy::Block), prog);
    // Cluster C has InfiniBand: the communication-heavy ring must be
    // faster there than on GigE cluster A.
    assert!(
        rc.makespan < ra.makespan,
        "C {} !< A {}",
        rc.makespan,
        ra.makespan
    );
}

#[test]
fn oversubscribed_run_is_slower() {
    let prog = |ctx: &mut pas2p_mpisim::RankCtx| {
        ctx.compute(Work::flops(1e8));
        ctx.barrier();
    };
    let m = quiet_machine();
    let dedicated = run_app(&SimConfig::new(m.clone(), 128, MappingPolicy::Block), prog);
    let packed = run_app(&SimConfig::new(m, 256, MappingPolicy::Block), prog);
    assert!(
        packed.makespan > 1.9 * dedicated.makespan,
        "256 ranks on 128 cores should be ~2x slower: {} vs {}",
        packed.makespan,
        dedicated.makespan
    );
}

struct AbortAfter {
    events: AtomicU64,
    limit: u64,
}

impl SimHarness for AbortAfter {
    fn on_comm_event(&self, _rank: u32, _c: &Counters, _clock: f64) -> HarnessAction {
        if self.events.fetch_add(1, Ordering::Relaxed) + 1 >= self.limit {
            HarnessAction::AbortAll
        } else {
            HarnessAction::Continue
        }
    }
}

#[test]
fn harness_abort_terminates_all_ranks() {
    let harness = Arc::new(AbortAfter {
        events: AtomicU64::new(0),
        limit: 40,
    });
    let cfg =
        SimConfig::new(quiet_machine(), 4, MappingPolicy::Block).with_harness(harness.clone());
    let r = run_app(&cfg, |ctx| {
        // Endless ring: can only finish by abort.
        let n = ctx.size();
        let next = (ctx.rank() + 1) % n;
        let prev = (ctx.rank() + n - 1) % n;
        loop {
            ctx.send(next, 0, b"spin");
            ctx.recv(Some(prev), Some(0));
        }
    });
    assert!(r.aborted);
    assert!(harness.events.load(Ordering::Relaxed) >= 40);
}

#[test]
fn irecv_wait_completes_like_recv() {
    run4(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, b"async");
        } else if ctx.rank() == 1 {
            let req = ctx.irecv(Some(0), Some(7));
            assert_eq!(req.posted_at, ctx.now());
            let m = ctx.wait(req);
            assert_eq!((m.len, m.tag), (5, 7));
            assert_eq!(ctx.counters().recvs, 1);
        }
    });
}

#[test]
fn overlapped_compute_absorbs_wire_time() {
    // Posting the receive, computing, then waiting: the compute interval
    // overlaps the transfer, so the total is max(compute, wire), not the
    // sum — the point of nonblocking communication.
    let m = quiet_machine();
    let cfg = SimConfig::new(m.clone(), 2, MappingPolicy::Cyclic); // different nodes
    let payload = vec![0u8; 8 << 20]; // ~75 ms on GigE
    let wire = m.network.transfer_time(payload.len() as u64);
    let compute_secs = 2.0 * wire;
    let flops = compute_secs * m.compute.flops_per_sec;
    let r = run_app(&cfg, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 1, &payload);
        } else {
            let req = ctx.irecv(Some(0), Some(1));
            ctx.compute(Work::flops(flops));
            ctx.wait(req);
            // The wait completes within the compute shadow: total ≈
            // compute, not compute + wire.
            assert!(
                ctx.now() < compute_secs * 1.15,
                "overlap failed: {} vs {}",
                ctx.now(),
                compute_secs
            );
        }
    });
    assert!(!r.aborted);
}

#[test]
fn waitall_preserves_request_order() {
    run4(|ctx| {
        if ctx.rank() == 0 {
            ctx.send_sized(1, 10, 1);
            ctx.send_sized(1, 11, 2);
        } else if ctx.rank() == 1 {
            let r1 = ctx.irecv(Some(0), Some(10));
            let r2 = ctx.irecv(Some(0), Some(11));
            let ms = ctx.waitall(vec![r1, r2]);
            let got: Vec<_> = ms.iter().map(|m| (m.tag, m.len)).collect();
            assert_eq!(got, [(10, 1), (11, 2)]);
        }
    });
}

#[test]
fn self_send_matches() {
    run4(|ctx| {
        if ctx.rank() == 0 {
            let id = ctx.send(0, 9, b"me");
            let m = ctx.recv(Some(0), Some(9));
            assert_eq!((m.src, m.dest, m.len, m.msg_id), (0, 0, 2, id));
        }
    });
}

#[test]
fn report_totals_count_traffic() {
    let r = run4(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, &[0u8; 100]);
        } else if ctx.rank() == 1 {
            ctx.recv(Some(0), None);
        }
        ctx.barrier();
    });
    assert_eq!(r.total_msgs, 1);
    assert_eq!(r.total_bytes, 100);
    assert_eq!(r.total_colls, 4);
    assert!(!r.aborted);
    assert!(r.wall_seconds > 0.0);
}

#[test]
fn message_relation_ids_are_unique() {
    let cfg = SimConfig::new(quiet_machine(), 4, MappingPolicy::Block);
    let seen = parking_lot_mutex_vec();
    let seen_ref = &seen;
    run_app(&cfg, move |ctx| {
        if ctx.rank() == 0 {
            for d in 1..4 {
                for _ in 0..5 {
                    ctx.send(d, 0, b"x");
                }
            }
        } else {
            for _ in 0..5 {
                let m = ctx.recv(Some(0), Some(0));
                seen_ref.lock().push(m.msg_id);
            }
        }
    });
    let ids = seen.into_inner();
    let uniq: std::collections::HashSet<u64> = ids.iter().cloned().collect();
    assert_eq!(uniq.len(), ids.len());
}

fn parking_lot_mutex_vec() -> parking_lot::Mutex<Vec<u64>> {
    parking_lot::Mutex::new(Vec::new())
}

#[test]
fn message_ids_are_deterministic_across_runs() {
    // Msg ids must depend only on the program (sender rank + send order),
    // never on how the OS interleaved rank threads: traces feed
    // content-addressed storage, where a drifting id changes the digest
    // of an identical logical run.
    let observe = || {
        let cfg = SimConfig::new(quiet_machine(), 4, MappingPolicy::Block);
        let per_rank: Vec<parking_lot::Mutex<Vec<u64>>> =
            (0..4).map(|_| parking_lot_mutex_vec()).collect();
        let per_rank_ref = &per_rank;
        run_app(&cfg, move |ctx| {
            let n = ctx.size();
            let rank = ctx.rank();
            for round in 0..3u32 {
                ctx.send((rank + 1) % n, round, &[2u8; 64]);
                let m = ctx.recv(Some((rank + n - 1) % n), Some(round));
                per_rank_ref[rank as usize].lock().push(m.msg_id);
            }
        });
        per_rank
            .into_iter()
            .map(|m| m.into_inner())
            .collect::<Vec<Vec<u64>>>()
    };
    let first = observe();
    assert_eq!(first, observe());
    // Sender rank lives in the high bits, send sequence in the low ones.
    assert_eq!(first[1], vec![1 << 40, (1 << 40) | 1, (1 << 40) | 2]);
}

#[test]
fn stress_64_ranks_mixed_traffic() {
    // 64 threads exchanging p2p + collectives for 30 rounds: exercises
    // the mailbox, rendezvous reuse, and group caching under real
    // contention.
    let cfg = SimConfig::new(quiet_machine(), 64, MappingPolicy::Block);
    let r = run_app(&cfg, |ctx| {
        let n = ctx.size();
        let rank = ctx.rank();
        for round in 0..30u32 {
            ctx.compute(Work::flops(1e6));
            let shift = 1 + (round % 5);
            let dest = (rank + shift) % n;
            let src = (rank + n - shift) % n;
            ctx.send(dest, round, &[1u8; 128]);
            ctx.recv(Some(src), Some(round));
            if round % 3 == 0 {
                ctx.allreduce_f64(&[rank as f64], ReduceOp::Max);
            }
            if round % 7 == 0 {
                let row = Group::grid_row(rank, 8, 8);
                ctx.barrier_in(&row);
            }
        }
    });
    assert!(!r.aborted);
    assert_eq!(r.total_msgs, 64 * 30);
    assert!(r.imbalance() < 0.05, "imbalance {}", r.imbalance());
}

#[test]
fn empty_payload_messages_work() {
    run4(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 0, &[]);
        } else if ctx.rank() == 1 {
            let m = ctx.recv(Some(0), Some(0));
            assert_eq!(m.len, 0);
            assert!(m.arrive >= m.depart);
        }
    });
}

#[test]
fn single_rank_world_runs_collectives() {
    let cfg = SimConfig::new(quiet_machine(), 1, MappingPolicy::Block);
    let r = run_app(&cfg, |ctx| {
        ctx.barrier();
        let s = ctx.allreduce_f64(&[5.0], ReduceOp::Sum);
        assert_eq!(s, vec![5.0]);
        assert_eq!(ctx.bcast(0, Some(4)), 4);
    });
    assert_eq!(r.nprocs, 1);
}

#[test]
fn tags_isolate_message_streams() {
    run4(|ctx| {
        if ctx.rank() == 0 {
            // Send interleaved tags, message `i` of length `i`; the
            // receiver drains them out of order.
            for i in 0..6u32 {
                ctx.send_sized(1, i % 2, i as usize);
            }
        } else if ctx.rank() == 1 {
            // Receive all tag-1 first, then tag-0: matching must respect
            // per-(src,tag) FIFO regardless of arrival interleaving.
            let odd: Vec<usize> = (0..3).map(|_| ctx.recv(Some(0), Some(1)).len).collect();
            let even: Vec<usize> = (0..3).map(|_| ctx.recv(Some(0), Some(0)).len).collect();
            assert_eq!(odd, vec![1, 3, 5]);
            assert_eq!(even, vec![0, 2, 4]);
        }
    });
}

#[test]
fn rank_clocks_reflect_load_imbalance() {
    let r = run4(|ctx| {
        ctx.compute(Work::flops(1e8 * (ctx.rank() + 1) as f64));
    });
    for w in r.rank_clocks.windows(2) {
        assert!(w[1] > w[0]);
    }
    assert!(r.imbalance() > 0.5);
}

#[test]
fn size_only_collectives_deliver_lengths_by_group_position() {
    run4(|ctx| {
        let rank = ctx.rank() as usize;
        let got = ctx.alltoall((0..4).map(|d| 10 * rank + d + 1).collect());
        for (s, &b) in got.iter().enumerate() {
            assert_eq!(b, 10 * s + rank + 1, "block from rank {s}");
        }
        assert_eq!(ctx.allgather(rank + 1), [1, 2, 3, 4]);
        let got = ctx.gather(2, 20 + rank);
        assert_eq!(got.is_some(), rank == 2);
        if let Some(blocks) = got {
            assert_eq!(blocks, [20, 21, 22, 23]);
        }
        let blocks = (rank == 1).then(|| (0..4).map(|i| 5 + i).collect());
        assert_eq!(ctx.scatter(1, blocks), 5 + rank);
        assert_eq!(ctx.bcast(3, (rank == 3).then_some(77)), 77);
    });
}

/// A wake that lands between a waiter's look and its park is not lost:
/// `park_until` reads the rank's token count before it looks, so the
/// token of a change it missed makes the park return at once. Rank 1
/// sets the flag and wakes rank 0 from inside rank 0's first look,
/// which then answers "not ready" as a look taken just before the
/// change would.
#[test]
fn a_wake_between_the_look_and_the_park_is_not_lost() {
    use std::sync::atomic::AtomicBool;
    let flag = AtomicBool::new(false);
    let looks = AtomicU64::new(0);
    let step = std::sync::Barrier::new(2);
    let cfg = SimConfig::new(quiet_machine(), 2, MappingPolicy::Block);
    run_app(&cfg, |ctx| {
        if ctx.rank() == 0 {
            ctx.park_until("the flag", || {
                if looks.fetch_add(1, Ordering::SeqCst) == 0 {
                    step.wait();
                    step.wait();
                    return false;
                }
                flag.load(Ordering::SeqCst)
            });
        } else {
            step.wait();
            flag.store(true, Ordering::SeqCst);
            ctx.wake(0);
            step.wait();
        }
    });
    assert_eq!(looks.load(Ordering::SeqCst), 2, "woken once, then ready");
}
