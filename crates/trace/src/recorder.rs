//! The interposition wrapper and trace collection.

use crate::event::{EventKind, ProcessTrace, Trace, TraceEvent};
use parking_lot::Mutex;
use pas2p_machine::Work;
use pas2p_mpisim::{CollInput, CollOp, CollOutput, Counters, Group, Message, Mpi, Tag};
use pas2p_obs::Counter;

static EVENTS: Counter = Counter::new("trace.events");
static BYTES: Counter = Counter::new("trace.bytes");

/// Cost model of the instrumentation itself.
///
/// Every intercepted event costs a little CPU time (buffering the record,
/// reading the clock). The paper's Table 9 measures the resulting
/// AET_PAS2P > AET; LU, with the most communication events, shows the
/// largest slowdown. The default of 3 µs per event is typical of
/// lightweight PMPI tracers.
#[derive(Debug, Clone, Copy)]
pub struct InstrumentationModel {
    /// Virtual seconds charged to the rank per recorded event.
    pub per_event_seconds: f64,
}

impl Default for InstrumentationModel {
    fn default() -> Self {
        InstrumentationModel {
            per_event_seconds: 3e-6,
        }
    }
}

impl InstrumentationModel {
    /// An overhead-free model, for tests needing exact times.
    pub fn free() -> InstrumentationModel {
        InstrumentationModel {
            per_event_seconds: 0.0,
        }
    }
}

/// Gathers per-rank logs produced by [`Traced`] wrappers into a [`Trace`].
pub struct TraceCollector {
    nprocs: u32,
    machine: String,
    model: InstrumentationModel,
    slots: Mutex<Vec<Option<ProcessTrace>>>,
    anomalies: Mutex<Vec<TraceBuildError>>,
}

impl TraceCollector {
    /// Collector for an `nprocs`-rank run on machine `machine`.
    pub fn new(nprocs: u32, machine: impl Into<String>, model: InstrumentationModel) -> Self {
        TraceCollector {
            nprocs,
            machine: machine.into(),
            model,
            slots: Mutex::new(vec![None; nprocs as usize]),
            anomalies: Mutex::new(Vec::new()),
        }
    }

    /// The instrumentation model ranks should charge.
    pub fn model(&self) -> InstrumentationModel {
        self.model
    }

    fn deposit(&self, log: ProcessTrace) {
        let mut slots = self.slots.lock();
        let rank = log.process as usize;
        // A misbehaving harness (rank relabeled, finish called twice)
        // must not abort collection: keep the first deposit, record the
        // anomaly, and let `try_into_trace` report it.
        if rank >= slots.len() {
            self.anomalies
                .lock()
                .push(TraceBuildError::UnknownRank(log.process));
            return;
        }
        if slots[rank].is_some() {
            self.anomalies
                .lock()
                .push(TraceBuildError::DuplicateDeposit(log.process));
            return;
        }
        slots[rank] = Some(log);
    }

    /// Assemble the full trace. Panics if any rank never deposited; use
    /// [`TraceCollector::try_into_trace`] to diagnose instead.
    pub fn into_trace(self) -> Trace {
        self.try_into_trace().unwrap_or_else(|e| panic!("{}", e))
    }

    /// Assemble the full trace, reporting a missing rank as an error
    /// instead of aborting — the checker's entry path for possibly
    /// incomplete collections.
    pub fn try_into_trace(self) -> Result<Trace, TraceBuildError> {
        let mut anomalies = self.anomalies.into_inner();
        if !anomalies.is_empty() {
            // Deposits may race; report the smallest offender so the
            // error is deterministic.
            anomalies.sort();
            return Err(anomalies[0]);
        }
        let slots = self.slots.into_inner();
        let mut procs: Vec<ProcessTrace> = Vec::with_capacity(slots.len());
        for (rank, s) in slots.into_iter().enumerate() {
            procs.push(s.ok_or(TraceBuildError::MissingRank(rank as u32))?);
        }
        let trace = Trace {
            nprocs: self.nprocs,
            machine: self.machine,
            procs,
        };
        EVENTS.add(trace.total_events() as u64);
        BYTES.add(trace.size_bytes());
        Ok(trace)
    }
}

/// Errors assembling a [`Trace`] from per-rank deposits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceBuildError {
    /// A rank never deposited its log (it died or `finish` was skipped).
    MissingRank(u32),
    /// A rank deposited its log twice (`finish` called more than once);
    /// the first deposit was kept.
    DuplicateDeposit(u32),
    /// A deposit was labeled with a rank outside the run and discarded.
    UnknownRank(u32),
}

impl std::fmt::Display for TraceBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceBuildError::MissingRank(r) => {
                write!(f, "rank {} never finished tracing", r)
            }
            TraceBuildError::DuplicateDeposit(r) => {
                write!(f, "rank {} deposited its trace twice", r)
            }
            TraceBuildError::UnknownRank(r) => {
                write!(f, "deposit labeled rank {} is outside the run", r)
            }
        }
    }
}

impl std::error::Error for TraceBuildError {}

/// The `libpas2p` analog: wraps any [`Mpi`] implementation, recording an
/// event per communication call, then delegates. Create one per rank
/// inside the rank closure and call [`Traced::finish`] before returning.
pub struct Traced<'a, C: Mpi> {
    inner: &'a mut C,
    collector: &'a TraceCollector,
    events: Vec<TraceEvent>,
    per_event: f64,
}

impl<'a, C: Mpi> Traced<'a, C> {
    /// Instrument `inner`, depositing the log into `collector` on finish.
    pub fn new(inner: &'a mut C, collector: &'a TraceCollector) -> Self {
        let per_event = collector.model().per_event_seconds;
        Traced {
            inner,
            collector,
            events: Vec::new(),
            per_event,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        t_post: f64,
        kind: EventKind,
        peer: Option<u32>,
        tag: Tag,
        size: u64,
        involved: u32,
        msg_id: u64,
        comm_id: u64,
        wildcard: bool,
    ) {
        let t_complete = self.inner.now();
        let number = self.events.len() as u64;
        self.events.push(TraceEvent {
            number,
            process: self.inner.rank(),
            t_post,
            t_complete,
            kind,
            peer,
            tag,
            size,
            involved,
            msg_id,
            comm_id,
            wildcard,
        });
        // Charge the instrumentation overhead after the event completes.
        self.inner.elapse(self.per_event);
    }

    /// Deposit this rank's log into the collector. Must be called exactly
    /// once, after the application code finishes.
    pub fn finish(self) {
        let log = ProcessTrace {
            process: self.inner.rank(),
            events: self.events,
            end_time: self.inner.now(),
        };
        self.collector.deposit(log);
    }
}

impl<'a, C: Mpi> Mpi for Traced<'a, C> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }

    fn size(&self) -> u32 {
        self.inner.size()
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn compute(&mut self, work: Work) {
        // Computation is not an event in the PAS2P model; it is recovered
        // from inter-event gaps during analysis.
        self.inner.compute(work);
    }

    fn elapse(&mut self, seconds: f64) {
        self.inner.elapse(seconds);
    }

    fn send_sized(&mut self, dest: u32, tag: Tag, len: usize) -> u64 {
        let t_post = self.inner.now();
        let msg_id = self.inner.send_sized(dest, tag, len);
        self.record(
            t_post,
            EventKind::Send,
            Some(dest),
            tag,
            len as u64,
            1,
            msg_id,
            0,
            false,
        );
        msg_id
    }

    fn recv(&mut self, src: Option<u32>, tag: Option<Tag>) -> Message {
        let t_post = self.inner.now();
        let wildcard = src.is_none();
        let m = self.inner.recv(src, tag);
        self.record(
            t_post,
            EventKind::Recv,
            Some(m.src),
            m.tag,
            m.len as u64,
            1,
            m.msg_id,
            0,
            wildcard,
        );
        m
    }

    fn wait(&mut self, req: pas2p_mpisim::RecvRequest) -> Message {
        // A nonblocking receive is one Recv event posted at irecv time and
        // completed at the wait — exactly how PMPI tracers attribute it.
        let t_post = req.posted_at;
        let wildcard = req.src.is_none();
        let m = self.inner.wait(req);
        self.record(
            t_post,
            EventKind::Recv,
            Some(m.src),
            m.tag,
            m.len as u64,
            1,
            m.msg_id,
            0,
            wildcard,
        );
        m
    }

    /// One `Coll` event over `group` per participation. Its size is what
    /// this rank contributed or, when it gets back a single block (the
    /// non-root side of bcast and scatter), that block if larger.
    fn collective_in(&mut self, group: &Group, op: CollOp, input: CollInput) -> CollOutput {
        let t_post = self.inner.now();
        let sent = input.byte_len();
        let out = self.inner.collective_in(group, op, input);
        let received = match &out {
            CollOutput::Block(b) => *b as u64,
            _ => 0,
        };
        self.record(
            t_post,
            EventKind::Coll(op.kind()),
            None,
            0,
            sent.max(received),
            group.len() as u32,
            0,
            group.comm_id(),
            false,
        );
        out
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }
}
