//! Simulation driver: spawns one OS thread per rank and collects results.

use crate::coll::CollSlot;
use crate::ctx::RankCtx;
use crate::group::Group;
use crate::harness::SimHarness;
use crate::msg::Envelope;
use crate::park::Registry;
use crate::report::RunReport;
use parking_lot::Mutex;
use pas2p_machine::{MachineModel, Mapping, MappingPolicy};
use pas2p_obs::cancel::{CancelToken, CANCELLED};
use pas2p_obs::Counter;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::time::Instant;

static RUNS: Counter = Counter::new("mpisim.runs");
static RANK_THREADS: Counter = Counter::new("mpisim.rank_threads");
static MESSAGES: Counter = Counter::new("mpisim.messages");
static BYTES: Counter = Counter::new("mpisim.bytes");
static COLLECTIVES: Counter = Counter::new("mpisim.collectives");
static RUNS_ABORTED: Counter = Counter::new("mpisim.runs_aborted");

/// Panic payload used to unwind rank threads on a harness abort. Not an
/// error: the runtime converts it into `RunReport::aborted`.
pub struct SimAbort;

static HOOK: Once = Once::new();

/// Suppress the default "thread panicked" message for [`SimAbort`]
/// unwinds; all other panics keep the previous hook behavior.
fn install_abort_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// State shared by all rank threads of one run.
pub(crate) struct Shared {
    pub machine: MachineModel,
    pub mapping: Mapping,
    /// The run's park/wake protocol: published clocks, wake tokens,
    /// park records and the abort flag (see [`crate::park`]).
    pub park: Registry,
    pub slots: Mutex<HashMap<Group, Arc<CollSlot>>>,
    pub harness: Option<Arc<dyn SimHarness>>,
    /// The cancellation token `run_app`'s caller ran under, if any.
    pub cancel: Option<CancelToken>,
    /// Set by the rank that found `cancel` cancelled and aborted the run.
    pub cancelled: AtomicBool,
    pub total_msgs: AtomicU64,
    pub total_bytes: AtomicU64,
    pub total_colls: AtomicU64,
}

/// Configuration of a simulated run.
#[derive(Clone)]
pub struct SimConfig {
    /// Machine (cluster) the run executes on.
    pub machine: MachineModel,
    /// Number of ranks.
    pub nprocs: u32,
    /// Process→core placement policy.
    pub policy: MappingPolicy,
    /// Optional runtime observer (signature machinery).
    pub harness: Option<Arc<dyn SimHarness>>,
}

impl SimConfig {
    /// A run of `nprocs` ranks on `machine` under `policy`, no harness.
    pub fn new(machine: MachineModel, nprocs: u32, policy: MappingPolicy) -> SimConfig {
        SimConfig {
            machine,
            nprocs,
            policy,
            harness: None,
        }
    }

    /// Install a harness observer.
    pub fn with_harness(mut self, harness: Arc<dyn SimHarness>) -> SimConfig {
        self.harness = Some(harness);
        self
    }
}

/// Execute `f` once per rank on the configured machine and return the run
/// report. The first panic from application code — or the report of an
/// application deadlock — propagates with its own payload once every
/// rank has unwound; [`SimAbort`] unwinds are converted into
/// `aborted = true`.
///
/// A caller running under a [`CancelToken`] hands it to the ranks: the
/// first rank to find it cancelled — each asks before it parks and every
/// few communication events — aborts the run (parked ranks are woken
/// like on any abort), and `run_app` then unwinds the caller with
/// [`CANCELLED`] instead of returning a report.
pub fn run_app<F>(cfg: &SimConfig, f: F) -> RunReport
where
    F: Fn(&mut RankCtx) + Send + Sync,
{
    install_abort_hook();
    let n = cfg.nprocs;
    assert!(n > 0, "need at least one rank");
    let mapping = cfg.machine.map(n, cfg.policy.clone());

    let mut senders = Vec::with_capacity(n as usize);
    let mut receivers = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel::<Envelope>();
        senders.push(tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);

    let shared = Arc::new(Shared {
        machine: cfg.machine.clone(),
        mapping,
        park: Registry::new(n as usize),
        slots: Mutex::new(HashMap::new()),
        harness: cfg.harness.clone(),
        cancel: pas2p_obs::cancel::current(),
        cancelled: AtomicBool::new(false),
        total_msgs: AtomicU64::new(0),
        total_bytes: AtomicU64::new(0),
        total_colls: AtomicU64::new(0),
    });

    let clocks = Mutex::new(vec![0.0f64; n as usize]);
    let any_aborted = AtomicBool::new(false);
    let first_panic = Mutex::new(None);
    let start = Instant::now();
    let f = &f;

    std::thread::scope(|s| {
        for (rank, rx) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            let shared = shared.clone();
            let clocks = &clocks;
            let any_aborted = &any_aborted;
            let first_panic = &first_panic;
            s.spawn(move || {
                // Timeline span for this rank's host thread (wall-clock
                // domain; the *virtual* rank timeline is reconstructed
                // from the recorded trace at export, never sampled here).
                let rank_span = pas2p_obs::trace_span("host.rank", format_args!("rank {rank}"));
                let mut ctx = RankCtx::new(rank as u32, n, rx, senders, shared.clone());
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    f(&mut ctx);
                    if let Some(h) = &shared.harness {
                        h.on_rank_done(rank as u32, ctx.final_clock());
                    }
                    // This rank will never send again: wildcard
                    // receivers stop waiting on its clock, and the ranks
                    // still parked may now be settled — or deadlocked.
                    ctx.finish();
                }));
                if let Err(payload) = result {
                    if payload.downcast_ref::<SimAbort>().is_some() {
                        any_aborted.store(true, Ordering::Relaxed);
                    } else {
                        // Real application panic: unwind the other ranks
                        // (parked ones included), then propagate.
                        shared.park.abort();
                        first_panic.lock().get_or_insert(payload);
                    }
                }
                clocks.lock()[rank] = ctx.final_clock();
                rank_span
                    .finish_with(|| vec![("virtual_clock", format!("{:.6}", ctx.final_clock()))]);
            });
        }
    });

    if let Some(payload) = first_panic.into_inner() {
        panic::resume_unwind(payload);
    }
    if shared.cancelled.load(Ordering::SeqCst) {
        panic::panic_any(CANCELLED);
    }
    let rank_clocks = clocks.into_inner();
    let makespan = rank_clocks.iter().cloned().fold(0.0f64, f64::max);
    let report = RunReport {
        nprocs: n,
        rank_clocks,
        makespan,
        total_msgs: shared.total_msgs.load(Ordering::Relaxed),
        total_bytes: shared.total_bytes.load(Ordering::Relaxed),
        total_colls: shared.total_colls.load(Ordering::Relaxed),
        aborted: any_aborted.load(Ordering::Relaxed),
        wall_seconds: start.elapsed().as_secs_f64(),
    };
    RUNS.inc();
    RANK_THREADS.add(n as u64);
    // How far an aborted run's ranks got before they noticed depends on
    // the schedule: its traffic stays out of the session's counters,
    // which then repeat exactly.
    if report.aborted {
        RUNS_ABORTED.inc();
    } else {
        MESSAGES.add(report.total_msgs);
        BYTES.add(report.total_bytes);
        COLLECTIVES.add(report.total_colls);
    }
    report
}
