//! Timeline composition: one Chrome Trace / Perfetto document holding
//! both the pipeline's self-profile and the simulated application.
//!
//! The document has two process lanes (see [`pas2p_obs::export`]):
//!
//! * **host** ([`PID_HOST`]) — what the *tool* did, in wall-clock
//!   microseconds: pipeline stages ([`pas2p_obs::stage`] spans), phase
//!   extraction workers, batch jobs, expired deadlines. Built
//!   from the live [`pas2p_obs::events`] stream.
//! * **app** ([`PID_APP`]) — what the *simulated application* did, in
//!   virtual microseconds: per-rank compute/send/recv/collective
//!   slices reconstructed from the recorded [`Trace`], message flow
//!   arrows from each send to its matching receive, and a phase track
//!   overlaying the extracted [`PhaseAnalysis`] occurrences on the
//!   same virtual axis. Virtual clocks are never sampled live — the
//!   recorded trace *is* the timeline.
//!
//! Determinism: the virtual domain is deterministic by construction
//! (the simulator's clocks are worker-count invariant) once message
//! ids are remapped to a rank-major dense numbering — the simulator
//! allocates `msg_id`s from a racing atomic counter, so the raw values
//! depend on thread interleaving even though the *pairing* does not.
//! [`ChromeTrace::normalized`] then strips the legitimately varying
//! host-scheduling detail, and `tests/par_determinism.rs` pins the
//! normalized serialization byte-for-byte across worker counts.

use std::collections::HashMap;

use pas2p_machine::CollectiveKind;
use pas2p_obs::events::Event;
use pas2p_obs::{ChromeTrace, PID_APP, PID_HOST};
use pas2p_phases::PhaseAnalysis;
use pas2p_trace::{EventKind, Trace};

/// Compose a timeline document from any subset of sources: recorded
/// host events (`pas2p_obs::events::take()`), a recorded application
/// trace, and its phase analysis for the overlay track. `label` lands
/// in the document's `otherData` so exported files identify their run.
///
/// The result is sorted into the canonical order and ready for
/// [`ChromeTrace::to_json`].
pub fn compose_timeline(
    host_events: &[Event],
    trace: Option<&Trace>,
    phases: Option<&PhaseAnalysis>,
    label: &str,
) -> ChromeTrace {
    let mut doc = ChromeTrace::new();
    doc.other_data("tool", "pas2p");
    doc.other_data("label", label);
    if !host_events.is_empty() {
        doc.process_name(PID_HOST, "pas2p pipeline (wall clock)");
        doc.push_host_events(host_events, PID_HOST);
    }
    if let Some(trace) = trace {
        push_app_timeline(&mut doc, trace, phases);
    }
    doc.sort();
    doc
}

fn coll_name(c: CollectiveKind) -> &'static str {
    match c {
        CollectiveKind::Barrier => "barrier",
        CollectiveKind::Bcast => "bcast",
        CollectiveKind::Reduce => "reduce",
        CollectiveKind::Allreduce => "allreduce",
        CollectiveKind::Allgather => "allgather",
        CollectiveKind::Alltoall => "alltoall",
        CollectiveKind::Gather => "gather",
        CollectiveKind::Scatter => "scatter",
    }
}

/// Seconds of virtual time → microsecond timeline coordinate.
fn us(t: f64) -> f64 {
    t * 1e6
}

/// Rebuild the simulated application's timeline from a recorded trace:
/// one thread lane per rank with compute gaps and communication slices,
/// send→recv flow arrows, and (when available) the phase-occurrence
/// overlay track at `tid = nprocs`.
fn push_app_timeline(doc: &mut ChromeTrace, trace: &Trace, phases: Option<&PhaseAnalysis>) {
    doc.process_name(PID_APP, "simulated application (virtual time)");
    for rank in 0..trace.nprocs {
        doc.thread_name(PID_APP, rank as u64, &format!("rank {rank}"));
    }

    // Simulator msg_ids are deterministic but sparse (sender rank in the
    // high bits); renumber them in rank-major first-appearance order so
    // Perfetto flow ids stay small and sequential.
    let mut msg_ids: HashMap<u64, u64> = HashMap::new();
    let mut next_msg = 1u64;
    for p in &trace.procs {
        for e in &p.events {
            if e.msg_id != 0 {
                msg_ids.entry(e.msg_id).or_insert_with(|| {
                    let id = next_msg;
                    next_msg += 1;
                    id
                });
            }
        }
    }

    for p in &trace.procs {
        let tid = p.process as u64;
        let mut prev_complete = 0.0f64;
        for (i, e) in p.events.iter().enumerate() {
            let gap = p.compute_before(i);
            if gap > 0.0 {
                doc.complete(
                    PID_APP,
                    tid,
                    "app.compute",
                    "compute",
                    us(prev_complete),
                    us(gap),
                    Vec::new(),
                );
            }
            let (cat, name) = match e.kind {
                EventKind::Send => ("app.send", "send"),
                EventKind::Recv => ("app.recv", "recv"),
                EventKind::Coll(c) => ("app.coll", coll_name(c)),
            };
            let mut args: Vec<(String, String)> = vec![
                ("size".to_string(), e.size.to_string()),
                ("tag".to_string(), e.tag.to_string()),
            ];
            if let Some(peer) = e.peer {
                args.push(("peer".to_string(), peer.to_string()));
            }
            if e.kind.is_collective() {
                args.push(("involved".to_string(), e.involved.to_string()));
                args.push(("comm_id".to_string(), format!("{:#x}", e.comm_id)));
            }
            if e.wildcard {
                args.push(("wildcard".to_string(), "true".to_string()));
            }
            doc.complete(
                PID_APP,
                tid,
                cat,
                name,
                us(e.t_post),
                us(e.t_complete - e.t_post),
                args,
            );
            if let Some(&id) = msg_ids.get(&e.msg_id) {
                match e.kind {
                    EventKind::Send => {
                        doc.flow_start(PID_APP, tid, "app.msg", "msg", us(e.t_post), id);
                    }
                    EventKind::Recv => {
                        doc.flow_end(PID_APP, tid, "app.msg", "msg", us(e.t_complete), id);
                    }
                    EventKind::Coll(_) => {}
                }
            }
            prev_complete = prev_complete.max(e.t_complete);
        }
    }

    if let Some(analysis) = phases {
        let tid = trace.nprocs as u64;
        doc.thread_name(PID_APP, tid, "phases");
        for phase in &analysis.phases {
            for occ in &phase.occurrences {
                doc.complete(
                    PID_APP,
                    tid,
                    "app.phase",
                    &format!("phase {}", phase.id),
                    us(occ.t_start),
                    us(occ.duration()),
                    vec![
                        ("weight".to_string(), phase.weight.to_string()),
                        (
                            "ticks".to_string(),
                            (occ.end_tick - occ.start_tick).to_string(),
                        ),
                    ],
                );
            }
        }
    }
}

/// Summary counts from a validated timeline document.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct TimelineStats {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete (`X`) slices.
    pub slices: usize,
    /// Instant (`i`) markers.
    pub instants: usize,
    /// Flow (`s`/`f`) arrows.
    pub flows: usize,
    /// Metadata (`M`) records.
    pub metadata: usize,
    /// Distinct process lanes.
    pub pids: usize,
}

/// Parse `json` and check it against the Chrome Trace Event Format
/// contract: a `traceEvents` array of objects, each with `name`, a
/// known one-letter `ph`, numeric `ts`/`pid`/`tid`, a non-negative
/// numeric `dur` on `X` slices and an `id` on flow events. Returns
/// summary counts, or a description of the first violation.
pub fn validate_chrome_json(json: &str) -> Result<TimelineStats, String> {
    let doc: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let obj = doc.as_object().ok_or("root is not a JSON object")?;
    let events = obj
        .get("traceEvents")
        .ok_or("missing \"traceEvents\"")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;

    let mut stats = TimelineStats::default();
    let mut pids = std::collections::BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ev = ev
            .as_object()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("traceEvents[{i}] missing string \"ph\""))?;
        if ev.get("name").and_then(|v| v.as_str()).is_none() {
            return Err(format!("traceEvents[{i}] missing string \"name\""));
        }
        for key in ["ts", "pid", "tid"] {
            if ev.get(key).and_then(|v| v.as_f64()).is_none() {
                return Err(format!("traceEvents[{i}] missing numeric \"{key}\""));
            }
        }
        pids.insert(ev["pid"].as_f64().unwrap_or(0.0) as i64);
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("traceEvents[{i}]: X slice missing numeric \"dur\""))?;
                if dur < 0.0 {
                    return Err(format!("traceEvents[{i}]: negative dur {dur}"));
                }
                stats.slices += 1;
            }
            "i" => stats.instants += 1,
            "s" | "f" => {
                if ev.get("id").is_none() {
                    return Err(format!("traceEvents[{i}]: flow event missing \"id\""));
                }
                stats.flows += 1;
            }
            "M" => stats.metadata += 1,
            other => return Err(format!("traceEvents[{i}]: unknown ph {other:?}")),
        }
    }
    stats.events = events.len();
    stats.pids = pids.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_trace::{ProcessTrace, TraceEvent};

    fn two_rank_trace() -> Trace {
        let send = TraceEvent {
            number: 0,
            process: 0,
            t_post: 1.0,
            t_complete: 1.5,
            kind: EventKind::Send,
            peer: Some(1),
            tag: 7,
            size: 64,
            involved: 1,
            msg_id: 99, // raw simulator id; remapped to 1 at export
            comm_id: 0,
            wildcard: false,
        };
        let recv = TraceEvent {
            number: 0,
            process: 1,
            t_post: 0.5,
            t_complete: 1.6,
            kind: EventKind::Recv,
            peer: Some(0),
            tag: 7,
            size: 64,
            involved: 1,
            msg_id: 99,
            comm_id: 0,
            wildcard: false,
        };
        Trace {
            nprocs: 2,
            machine: "test".into(),
            procs: vec![
                ProcessTrace {
                    process: 0,
                    events: vec![send],
                    end_time: 1.5,
                },
                ProcessTrace {
                    process: 1,
                    events: vec![recv],
                    end_time: 1.6,
                },
            ],
        }
    }

    #[test]
    fn app_timeline_has_ranks_flows_and_compute() {
        let trace = two_rank_trace();
        let doc = compose_timeline(&[], Some(&trace), None, "t");
        let json = doc.to_json();
        let stats = validate_chrome_json(&json).expect("valid document");
        // rank 0: compute + send; rank 1: compute + recv.
        assert_eq!(stats.slices, 4);
        assert_eq!(stats.flows, 2, "send/recv flow pair");
        assert!(json.contains("\"rank 0\""));
        assert!(json.contains("\"rank 1\""));
        // The raw msg_id 99 was renumbered to the dense id 1.
        assert!(json.contains("\"id\":\"0x1\""));
    }

    #[test]
    fn msg_id_remap_is_interleaving_invariant() {
        let trace = two_rank_trace();
        let mut renamed = trace.clone();
        // Same pairing, different raw counter values.
        renamed.procs[0].events[0].msg_id = 1234;
        renamed.procs[1].events[0].msg_id = 1234;
        let a = compose_timeline(&[], Some(&trace), None, "t").to_json();
        let b = compose_timeline(&[], Some(&renamed), None, "t").to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":[{}]}").is_err());
        let bad_ph =
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Z\",\"ts\":0,\"pid\":1,\"tid\":0}]}";
        assert!(validate_chrome_json(bad_ph).is_err());
        let no_dur =
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0}]}";
        assert!(validate_chrome_json(no_dur).is_err());
        let ok = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":0}]}";
        let stats = validate_chrome_json(ok).unwrap();
        assert_eq!((stats.events, stats.slices, stats.pids), (1, 1, 1));
    }
}
