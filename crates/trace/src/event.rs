//! The PAS2P event structure and trace containers.

use pas2p_machine::CollectiveKind;
use serde::{Deserialize, Serialize};

/// The paper's *type of event*: `+K` for a Send, `-K` for a Receive, where
/// `K` is the number of involved processes; collectives involve the whole
/// group and are ordered specially by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A point-to-point send (`+1`).
    Send,
    /// A point-to-point receive (`-1`).
    Recv,
    /// A collective participation (`±K`, K = group size), of the class
    /// the trace layer intercepted.
    Coll(CollectiveKind),
}

impl EventKind {
    /// True for collective participations.
    pub fn is_collective(&self) -> bool {
        matches!(self, EventKind::Coll(_))
    }
}

/// One intercepted communication event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Per-process event number (the paper's *number of event*). Global
    /// ids are assigned when the model merges processes.
    pub number: u64,
    /// Rank on which the event occurred (the paper's *process*).
    pub process: u32,
    /// Physical (virtual-machine) time at which the call was posted.
    pub t_post: f64,
    /// Physical time at which the call completed; for receives this is the
    /// message arrival, for collectives the synchronized exit.
    pub t_complete: f64,
    /// Event class.
    pub kind: EventKind,
    /// Point-to-point peer rank (`None` for collectives).
    pub peer: Option<u32>,
    /// Message tag (0 for collectives).
    pub tag: u32,
    /// Communication volume in bytes (the paper's *size*).
    pub size: u64,
    /// Number of involved processes (the paper's *K*).
    pub involved: u32,
    /// The paper's *relation* field: the message id linking a Send event
    /// to its Receive event; 0 for collectives.
    pub msg_id: u64,
    /// Communicator identity for collectives (stable across members; see
    /// [`pas2p_mpisim::Group::comm_id`]); 0 for point-to-point events.
    pub comm_id: u64,
    /// True when a receive was posted with a wildcard source
    /// (`MPI_ANY_SOURCE`): `peer` then records the source that happened to
    /// match this run, one of several possible outcomes. Always false for
    /// sends and collectives.
    #[serde(default)]
    pub wildcard: bool,
}

/// The event log of one process.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcessTrace {
    /// Rank this log belongs to.
    pub process: u32,
    /// Events in program order.
    pub events: Vec<TraceEvent>,
    /// The rank's virtual clock when tracing finished (per-rank AET under
    /// instrumentation).
    pub end_time: f64,
}

impl ProcessTrace {
    /// Compute time preceding event `i`: the gap between the completion of
    /// the previous event (or 0.0) and the posting of event `i`. This is
    /// the quantity PBBs are made of.
    pub fn compute_before(&self, i: usize) -> f64 {
        let prev_end = if i == 0 {
            0.0
        } else {
            self.events[i - 1].t_complete
        };
        (self.events[i].t_post - prev_end).max(0.0)
    }
}

/// A complete application trace: one [`ProcessTrace`] per rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of processes in the traced run.
    pub nprocs: u32,
    /// Name of the machine model the trace was collected on (the paper's
    /// *base machine*).
    pub machine: String,
    /// Per-process logs, indexed by rank.
    pub procs: Vec<ProcessTrace>,
}

impl Trace {
    /// Total number of events across all processes.
    pub fn total_events(&self) -> usize {
        self.procs.iter().map(|p| p.events.len()).sum()
    }

    /// The traced application execution time: maximum per-rank end time.
    /// Because tracing charges instrumentation overhead, this is the
    /// paper's AET_PAS2P, not the bare AET.
    pub fn elapsed(&self) -> f64 {
        self.procs.iter().map(|p| p.end_time).fold(0.0, f64::max)
    }

    /// Serialized size of this trace in the binary on-disk format — the
    /// paper's *TFSize* (Table 8).
    pub fn size_bytes(&self) -> u64 {
        crate::format::encoded_size(self)
    }

    /// Sanity-check internal consistency; returns a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.procs.len() != self.nprocs as usize {
            return Err(format!(
                "{} process logs for {} processes",
                self.procs.len(),
                self.nprocs
            ));
        }
        for (rank, p) in self.procs.iter().enumerate() {
            if p.process != rank as u32 {
                return Err(format!("log {} labeled process {}", rank, p.process));
            }
            let mut last = 0.0f64;
            for (i, e) in p.events.iter().enumerate() {
                if e.process != p.process {
                    return Err(format!("event {} of rank {} mislabeled", i, rank));
                }
                if e.number != i as u64 {
                    return Err(format!(
                        "event {} of rank {} numbered {}",
                        i, rank, e.number
                    ));
                }
                if e.t_complete + 1e-12 < e.t_post {
                    return Err(format!(
                        "event {} of rank {} completes before posting",
                        i, rank
                    ));
                }
                if e.wildcard && e.kind != EventKind::Recv {
                    return Err(format!(
                        "event {} of rank {} carries a wildcard flag but is not a receive",
                        i, rank
                    ));
                }
                // Completions are monotone per process; posts may precede
                // the previous completion (nonblocking receives overlap).
                if e.t_complete + 1e-9 < last {
                    return Err(format!(
                        "event {} of rank {} completes before its predecessor",
                        i, rank
                    ));
                }
                last = e.t_complete;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(number: u64, process: u32, t0: f64, t1: f64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            number,
            process,
            t_post: t0,
            t_complete: t1,
            kind,
            peer: Some(0),
            tag: 0,
            size: 8,
            involved: 1,
            msg_id: number + 1,
            comm_id: 0,
            wildcard: false,
        }
    }

    #[test]
    fn compute_before_measures_gaps() {
        let p = ProcessTrace {
            process: 0,
            events: vec![
                ev(0, 0, 1.0, 1.5, EventKind::Send),
                ev(1, 0, 3.5, 4.0, EventKind::Recv),
            ],
            end_time: 4.0,
        };
        assert!((p.compute_before(0) - 1.0).abs() < 1e-12);
        assert!((p.compute_before(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_wellformed_trace() {
        let t = Trace {
            nprocs: 1,
            machine: "m".into(),
            procs: vec![ProcessTrace {
                process: 0,
                events: vec![ev(0, 0, 0.0, 1.0, EventKind::Send)],
                end_time: 1.0,
            }],
        };
        assert!(t.validate().is_ok());
        assert_eq!(t.total_events(), 1);
        assert!((t.elapsed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_time_travel() {
        let t = Trace {
            nprocs: 1,
            machine: "m".into(),
            procs: vec![ProcessTrace {
                process: 0,
                events: vec![ev(0, 0, 2.0, 1.0, EventKind::Send)],
                end_time: 2.0,
            }],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_numbering() {
        let t = Trace {
            nprocs: 1,
            machine: "m".into(),
            procs: vec![ProcessTrace {
                process: 0,
                events: vec![ev(7, 0, 0.0, 1.0, EventKind::Send)],
                end_time: 1.0,
            }],
        };
        assert!(t.validate().is_err());
    }
}
