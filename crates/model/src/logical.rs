//! The logical trace: events laid out on a global tick axis.

use pas2p_trace::{EventKind, Trace};
use serde::{Deserialize, Serialize};

/// One event positioned in the logical trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicalEvent {
    /// Rank the event belongs to.
    pub process: u32,
    /// Per-process event number in the original physical trace.
    pub number: u64,
    /// Event class (send / recv / collective).
    pub kind: EventKind,
    /// Point-to-point peer, if any.
    pub peer: Option<u32>,
    /// Communication volume in bytes.
    pub size: u64,
    /// Involved processes (K).
    pub involved: u32,
    /// Relation (message id) for p2p events.
    pub msg_id: u64,
    /// Communicator identity for collectives.
    pub comm_id: u64,
    /// Computational time preceding this event in its process (the PBB
    /// content), in physical seconds on the base machine.
    pub compute_before: f64,
    /// Time the communication call itself took (blocking/transfer time).
    pub duration: f64,
    /// Physical post time on the base machine.
    pub t_post: f64,
    /// Physical completion time on the base machine.
    pub t_complete: f64,
}

/// One logical time unit holding at most one event per process.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tick {
    /// Events at this tick, sorted by process.
    pub events: Vec<LogicalEvent>,
}

impl Tick {
    /// The event of `process` at this tick, if any.
    pub fn event_of(&self, process: u32) -> Option<&LogicalEvent> {
        self.events
            .binary_search_by_key(&process, |e| e.process)
            .ok()
            .map(|i| &self.events[i])
    }
}

/// The machine-independent application model: the merged, logically
/// ordered event stream of all processes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicalTrace {
    /// Number of processes.
    pub nprocs: u32,
    /// Ticks in ascending logical time.
    pub ticks: Vec<Tick>,
}

impl LogicalTrace {
    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// True when the trace holds no ticks.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Total number of events across ticks.
    pub fn total_events(&self) -> usize {
        self.ticks.iter().map(|t| t.events.len()).sum()
    }

    /// Map every event to its tick: `(process, number) → tick index`.
    /// This is the bridge race analysis needs between trace-space
    /// findings (rank, event number) and tick-space artifacts (phase
    /// occurrences span tick ranges).
    pub fn tick_positions(&self) -> std::collections::HashMap<(u32, u64), usize> {
        let mut map = std::collections::HashMap::with_capacity(self.total_events());
        for (t, tick) in self.ticks.iter().enumerate() {
            for e in &tick.events {
                map.insert((e.process, e.number), t);
            }
        }
        map
    }

    /// Verify the defining invariants of a logical trace:
    /// * at most one event per (process, tick);
    /// * per process, ticks preserve program order (event numbers strictly
    ///   increase along the tick axis);
    /// * every event of the source trace appears exactly once.
    pub fn validate_against(&self, source: &Trace) -> Result<(), String> {
        let mut seen = vec![0u64; self.nprocs as usize];
        let mut counts = vec![0usize; self.nprocs as usize];
        for (t, tick) in self.ticks.iter().enumerate() {
            let mut procs_here = std::collections::HashSet::new();
            for e in &tick.events {
                if !procs_here.insert(e.process) {
                    return Err(format!(
                        "tick {} holds two events of process {}",
                        t, e.process
                    ));
                }
                let p = e.process as usize;
                if counts[p] > 0 && e.number <= seen[p] {
                    return Err(format!(
                        "process {} event {} out of program order at tick {}",
                        e.process, e.number, t
                    ));
                }
                seen[p] = e.number;
                counts[p] += 1;
            }
        }
        for (rank, proc_trace) in source.procs.iter().enumerate() {
            if counts[rank] != proc_trace.events.len() {
                return Err(format!(
                    "process {}: {} events in logical trace, {} in source",
                    rank,
                    counts[rank],
                    proc_trace.events.len()
                ));
            }
        }
        Ok(())
    }
}

/// Assemble `(lt, sub)`-keyed events into the final tick axis: events are
/// grouped by their (possibly split) logical time, orderings inside a tick
/// are by process, and tick indices are renumbered densely from zero.
pub(crate) fn assemble(nprocs: u32, mut keyed: Vec<(u64, u64, LogicalEvent)>) -> LogicalTrace {
    keyed.sort_by_key(|a| (a.0, a.1, a.2.process));
    let mut ticks: Vec<Tick> = Vec::new();
    let mut current: Option<(u64, u64)> = None;
    for (lt, sub, ev) in keyed {
        if current != Some((lt, sub)) {
            ticks.push(Tick::default());
            current = Some((lt, sub));
        }
        ticks.last_mut().unwrap().events.push(ev);
    }
    LogicalTrace { nprocs, ticks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_trace::EventKind;

    fn ev(process: u32, number: u64) -> LogicalEvent {
        LogicalEvent {
            process,
            number,
            kind: EventKind::Send,
            peer: None,
            size: 0,
            involved: 1,
            msg_id: 0,
            comm_id: 0,
            compute_before: 0.0,
            duration: 0.0,
            t_post: 0.0,
            t_complete: 0.0,
        }
    }

    #[test]
    fn assemble_groups_by_lt_and_sub() {
        let keyed = vec![
            (1, 0, ev(1, 0)),
            (0, 0, ev(0, 0)),
            (1, 1, ev(0, 1)),
            (1, 0, ev(0, 2)), // same (lt,sub) as first → same tick. (out of
                              // program order; assemble doesn't validate)
        ];
        let lt = assemble(2, keyed);
        assert_eq!(lt.len(), 3);
        assert_eq!(lt.ticks[0].events.len(), 1);
        assert_eq!(lt.ticks[1].events.len(), 2);
        // Within a tick, events sorted by process.
        assert_eq!(lt.ticks[1].events[0].process, 0);
        assert_eq!(lt.ticks[1].events[1].process, 1);
    }

    #[test]
    fn event_of_finds_by_process() {
        let keyed = vec![(0, 0, ev(3, 0)), (0, 0, ev(1, 0))];
        let lt = assemble(4, keyed);
        let tick = &lt.ticks[0];
        assert!(tick.event_of(1).is_some());
        assert!(tick.event_of(3).is_some());
        assert!(tick.event_of(0).is_none());
    }

    #[test]
    fn tick_positions_invert_the_layout() {
        let keyed = vec![(0, 0, ev(0, 0)), (1, 0, ev(0, 1)), (1, 0, ev(1, 0))];
        let lt = assemble(2, keyed);
        let pos = lt.tick_positions();
        assert_eq!(pos[&(0, 0)], 0);
        assert_eq!(pos[&(0, 1)], 1);
        assert_eq!(pos[&(1, 0)], 1);
    }

    #[test]
    fn totals_count_events() {
        let keyed = vec![(0, 0, ev(0, 0)), (1, 0, ev(0, 1)), (1, 0, ev(1, 0))];
        let lt = assemble(2, keyed);
        assert_eq!(lt.total_events(), 3);
        assert!(!lt.is_empty());
    }
}
