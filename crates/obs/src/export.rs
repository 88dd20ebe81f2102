//! Chrome Trace Event Format / Perfetto-compatible timeline export.
//!
//! [`ChromeTrace`] is an in-memory timeline document: a list of
//! [`ChromeEvent`]s (complete slices, instants, flow arrows, metadata)
//! that serializes to the JSON object format consumed by Perfetto,
//! `chrome://tracing` and `speedscope` — `{"traceEvents": [...]}` with
//! microsecond timestamps.
//!
//! Two timestamp domains share one document, separated by `pid`:
//!
//! * **[`PID_HOST`]** — the tool observing itself: pipeline stages,
//!   extraction-pool workers, batch jobs. Wall-clock microseconds since
//!   the process trace epoch, converted from the [`crate::events`]
//!   stream by [`ChromeTrace::push_host_events`].
//! * **[`PID_APP`]** — the simulated application: per-rank
//!   compute/send/recv/collective slices and phase-boundary overlays in
//!   *virtual* microseconds, built by the pipeline crate from the
//!   recorded trace (virtual clocks are never sampled live).
//!
//! Serialization streams each event through `serde_json` and is
//! deterministic: events are emitted in the order produced by
//! [`ChromeTrace::sort`] (metadata first, then a total order on content)
//! with timestamps rounded to the nanosecond, so two documents describing
//! the same run are byte-identical. [`ChromeTrace::normalized`]
//! additionally strips the host-scheduling detail that legitimately
//! varies across worker counts — wall-clock values, thread identities,
//! `host.worker` lanes and host-domain flows — leaving the
//! deterministic skeleton that `tests/par_determinism.rs` pins.

use crate::events::{Event, EventPhase};
use serde::{Serialize, Sink};
use std::collections::HashMap;

/// `pid` of the host (pipeline self-profile) track group.
pub const PID_HOST: u32 = 1;
/// `pid` of the simulated-application track group.
pub const PID_APP: u32 = 2;

/// Host-event category for concurrency-dependent worker lanes; dropped
/// by [`ChromeTrace::normalized`] because their count follows the
/// worker-pool size, not the workload.
pub const CAT_HOST_WORKER: &str = "host.worker";

/// One event in Chrome Trace Event Format. `ph` is the format's phase
/// letter: `X` complete slice, `i` instant, `s`/`f` flow start/end,
/// `M` metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Slice or marker name.
    pub name: String,
    /// Category (`host.*` wall-clock domain, `app.*` virtual domain,
    /// `__metadata` for `M` records).
    pub cat: String,
    /// Phase letter: 'X', 'i', 's', 'f' or 'M'.
    pub ph: char,
    /// Timestamp in microseconds (wall or virtual per the pid).
    pub ts_us: f64,
    /// Duration in microseconds ('X' events only).
    pub dur_us: Option<f64>,
    /// Process lane ([`PID_HOST`] or [`PID_APP`]).
    pub pid: u32,
    /// Thread lane within the process lane.
    pub tid: u64,
    /// Pairing id ('s'/'f' flow events only).
    pub id: Option<u64>,
    /// Ordered key/value annotations.
    pub args: Vec<(String, String)>,
}

impl ChromeEvent {
    fn meta(pid: u32, tid: u64, name: &str, value: String) -> ChromeEvent {
        ChromeEvent {
            name: name.to_string(),
            cat: "__metadata".to_string(),
            ph: 'M',
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid,
            id: None,
            args: vec![("name".to_string(), value)],
        }
    }
}

/// A timeline document in Chrome Trace Event Format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    /// The `traceEvents` array.
    pub events: Vec<ChromeEvent>,
    /// The `otherData` object (free-form document annotations).
    pub other_data: Vec<(String, String)>,
}

impl ChromeTrace {
    /// An empty document.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Attach a document-level annotation (`otherData`).
    pub fn other_data(&mut self, key: &str, value: &str) {
        self.other_data.push((key.to_string(), value.to_string()));
    }

    /// Name a process lane.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events
            .push(ChromeEvent::meta(pid, 0, "process_name", name.to_string()));
    }

    /// Name a thread lane.
    pub fn thread_name(&mut self, pid: u32, tid: u64, name: &str) {
        self.events
            .push(ChromeEvent::meta(pid, tid, "thread_name", name.to_string()));
    }

    /// A complete slice (`ph: "X"`): `[ts_us, ts_us + dur_us)`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts_us,
            dur_us: Some(dur_us.max(0.0)),
            pid,
            tid,
            id: None,
            args,
        });
    }

    /// A point marker (`ph: "i"`).
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        ts_us: f64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts_us,
            dur_us: None,
            pid,
            tid,
            id: None,
            args,
        });
    }

    /// A flow arrow's source (`ph: "s"`); pair with [`flow_end`] by id.
    ///
    /// [`flow_end`]: ChromeTrace::flow_end
    pub fn flow_start(&mut self, pid: u32, tid: u64, cat: &str, name: &str, ts_us: f64, id: u64) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 's',
            ts_us,
            dur_us: None,
            pid,
            tid,
            id: Some(id),
            args: Vec::new(),
        });
    }

    /// A flow arrow's destination (`ph: "f"`).
    pub fn flow_end(&mut self, pid: u32, tid: u64, cat: &str, name: &str, ts_us: f64, id: u64) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'f',
            ts_us,
            dur_us: None,
            pid,
            tid,
            id: Some(id),
            args: Vec::new(),
        });
    }

    /// Convert a recorded [`crate::events`] stream into host-domain
    /// timeline events under `pid`.
    ///
    /// Span begin/end pairs become complete (`X`) slices; a begin whose
    /// end never arrived (a run unwound past its deadline, a panicking
    /// worker) becomes a zero-length slice flagged `unfinished`. Parent
    /// links are resolved to the parent span's *name* — span ids are
    /// allocated from a process-global counter whose values depend on
    /// thread interleaving, so names, not numbers, are what exports can
    /// rely on. Host flows keep their numeric ids (dropped again by
    /// [`ChromeTrace::normalized`]).
    pub fn push_host_events(&mut self, events: &[Event], pid: u32) {
        // Span id → name, for parent resolution.
        let names: HashMap<u64, &str> = events
            .iter()
            .filter(|e| e.ph == EventPhase::Begin)
            .map(|e| (e.id, e.name.as_str()))
            .collect();
        let mut open: HashMap<u64, usize> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            match e.ph {
                EventPhase::Begin => {
                    open.insert(e.id, i);
                }
                EventPhase::End => {
                    let Some(begin_idx) = open.remove(&e.id) else {
                        continue; // end without begin: taken between the two
                    };
                    let b = &events[begin_idx];
                    let mut args: Vec<(String, String)> = Vec::new();
                    if b.parent != 0 {
                        if let Some(parent) = names.get(&b.parent) {
                            args.push(("parent".to_string(), (*parent).to_string()));
                        }
                    }
                    for (k, v) in b.args.iter().chain(e.args.iter()) {
                        args.push((k.to_string(), v.clone()));
                    }
                    self.complete(
                        pid,
                        b.tid,
                        b.cat,
                        &b.name,
                        b.ts_ns as f64 / 1e3,
                        (e.ts_ns.saturating_sub(b.ts_ns)) as f64 / 1e3,
                        args,
                    );
                }
                EventPhase::Instant => {
                    let mut args: Vec<(String, String)> = Vec::new();
                    if e.parent != 0 {
                        if let Some(parent) = names.get(&e.parent) {
                            args.push(("parent".to_string(), (*parent).to_string()));
                        }
                    }
                    for (k, v) in &e.args {
                        args.push((k.to_string(), v.clone()));
                    }
                    self.instant(pid, e.tid, e.cat, &e.name, e.ts_ns as f64 / 1e3, args);
                }
                EventPhase::FlowStart => {
                    self.flow_start(pid, e.tid, e.cat, &e.name, e.ts_ns as f64 / 1e3, e.id);
                }
                EventPhase::FlowEnd => {
                    self.flow_end(pid, e.tid, e.cat, &e.name, e.ts_ns as f64 / 1e3, e.id);
                }
            }
        }
        // Spans still open when the stream was taken.
        let mut unfinished: Vec<usize> = open.into_values().collect();
        unfinished.sort_unstable();
        for begin_idx in unfinished {
            let b = &events[begin_idx];
            self.complete(
                pid,
                b.tid,
                b.cat,
                &b.name,
                b.ts_ns as f64 / 1e3,
                0.0,
                vec![("unfinished".to_string(), "true".to_string())],
            );
        }
    }

    /// Establish the canonical event order: metadata records first, then
    /// a total order on (pid, tid, ts, phase, name, id, args) so equal
    /// documents serialize byte-identically.
    pub fn sort(&mut self) {
        fn ph_rank(ph: char) -> u8 {
            match ph {
                'M' => 0,
                'X' => 1,
                'i' => 2,
                's' => 3,
                'f' => 4,
                _ => 5,
            }
        }
        self.events.sort_by(|a, b| {
            (a.ph != 'M')
                .cmp(&(b.ph != 'M'))
                .then_with(|| a.pid.cmp(&b.pid))
                .then_with(|| a.tid.cmp(&b.tid))
                .then_with(|| a.ts_us.total_cmp(&b.ts_us))
                .then_with(|| ph_rank(a.ph).cmp(&ph_rank(b.ph)))
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.id.cmp(&b.id))
                .then_with(|| a.args.cmp(&b.args))
        });
    }

    /// The document with host-scheduling detail removed: wall-clock
    /// timestamps and durations zeroed, host thread lanes collapsed to
    /// tid 0, [`CAT_HOST_WORKER`] lanes and host-domain flow arrows
    /// dropped (their count and ids follow the pool size and thread
    /// interleaving). The virtual-time application domain is untouched.
    /// The result is re-sorted, so serializing it is byte-identical for
    /// any worker count — the diffable determinism surface.
    pub fn normalized(&self) -> ChromeTrace {
        let mut out = ChromeTrace {
            events: Vec::with_capacity(self.events.len()),
            other_data: self.other_data.clone(),
        };
        for e in &self.events {
            let host = e.pid == PID_HOST;
            if host && (e.cat == CAT_HOST_WORKER || e.ph == 's' || e.ph == 'f') {
                continue;
            }
            let mut e = e.clone();
            if host {
                e.ts_us = 0.0;
                if e.dur_us.is_some() {
                    e.dur_us = Some(0.0);
                }
                e.tid = 0;
            }
            out.events.push(e);
        }
        out.sort();
        out
    }

    /// Serialize to Chrome Trace Event JSON (the object form with a
    /// `traceEvents` array) with a trailing newline. Emission order is
    /// the current event order — call [`ChromeTrace::sort`] (or use a
    /// composer that does) for the canonical byte-stable form.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string(self).expect("a timeline always serializes");
        s.push('\n');
        s
    }
}

/// A timestamp or duration rounded to the nanosecond, so equal documents
/// compare equal as bytes; JSON has no NaN or infinity, so a non-finite
/// value is written as 0.
fn us(out: &mut dyn Sink, v: f64) {
    let v = if v.is_finite() { v } else { 0.0 };
    out.f64((v * 1e3).round() / 1e3);
}

/// An ordered list of string pairs as one JSON object.
fn pairs(out: &mut dyn Sink, pairs: &[(String, String)]) {
    out.begin_map();
    for (k, v) in pairs {
        out.key(k);
        out.str(v);
    }
    out.end_map();
}

impl Serialize for ChromeEvent {
    fn serialize(&self, out: &mut dyn Sink) {
        out.begin_map();
        out.key("name");
        out.str(&self.name);
        out.key("cat");
        out.str(&self.cat);
        out.key("ph");
        out.str(self.ph.encode_utf8(&mut [0; 4]));
        out.key("ts");
        us(out, self.ts_us);
        if let Some(dur) = self.dur_us {
            out.key("dur");
            us(out, dur);
        }
        out.key("pid");
        out.u64(self.pid.into());
        out.key("tid");
        out.u64(self.tid);
        if let Some(id) = self.id {
            out.key("id");
            out.str(&format!("{id:#x}"));
        }
        if self.ph == 'f' {
            // Bind the arrow to the enclosing slice at this ts.
            out.key("bp");
            out.str("e");
        }
        if self.ph == 'i' {
            out.key("s");
            out.str("t");
        }
        if !self.args.is_empty() {
            out.key("args");
            pairs(out, &self.args);
        }
        out.end_map();
    }
}

impl Serialize for ChromeTrace {
    fn serialize(&self, out: &mut dyn Sink) {
        out.begin_map();
        out.key("traceEvents");
        self.events.serialize(out);
        out.key("displayTimeUnit");
        out.str("ms");
        if !self.other_data.is_empty() {
            out.key("otherData");
            pairs(out, &self.other_data);
        }
        out.end_map();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_event_serializes_all_required_keys() {
        let mut doc = ChromeTrace::new();
        doc.process_name(PID_APP, "app");
        doc.complete(
            PID_APP,
            3,
            "app.send",
            "send",
            1.5004,
            2.0,
            vec![("bytes".into(), "64".into())],
        );
        doc.instant(PID_APP, 3, "app.phase", "nan", f64::NAN, Vec::new());
        doc.sort();
        let json = doc.to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.5,"), "rounded to the nanosecond");
        assert!(json.contains("\"dur\":2.0"));
        assert!(json.contains("\"args\":{\"bytes\":\"64\"}"));
        assert!(
            json.contains("\"name\":\"nan\",\"cat\":\"app.phase\",\"ph\":\"i\",\"ts\":0.0,"),
            "a non-finite ts is written as 0"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut doc = ChromeTrace::new();
        doc.instant(PID_HOST, 0, "host.stage", "a\"b\\c\n", 0.0, Vec::new());
        let json = doc.to_json();
        assert!(json.contains("a\\\"b\\\\c\\n"));
    }

    #[test]
    fn host_spans_pair_into_complete_slices() {
        use crate::events::{Event, EventPhase};
        let mk = |ph, id, parent, ts, name: &str| Event {
            name: name.to_string(),
            cat: "host.stage",
            ph,
            ts_ns: ts,
            tid: 7,
            id,
            parent,
            args: Vec::new(),
        };
        let events = vec![
            mk(EventPhase::Begin, 1, 0, 1_000, "outer"),
            mk(EventPhase::Begin, 2, 1, 2_000, "inner"),
            mk(EventPhase::End, 2, 1, 3_000, ""),
            mk(EventPhase::End, 1, 0, 9_000, ""),
            mk(EventPhase::Begin, 3, 0, 10_000, "dangling"),
        ];
        let mut doc = ChromeTrace::new();
        doc.push_host_events(&events, PID_HOST);
        assert_eq!(doc.events.len(), 3);
        let inner = doc
            .events
            .iter()
            .find(|e| e.name == "inner")
            .expect("inner slice");
        assert_eq!(inner.ph, 'X');
        assert_eq!(inner.ts_us, 2.0);
        assert_eq!(inner.dur_us, Some(1.0));
        assert!(inner
            .args
            .contains(&("parent".to_string(), "outer".to_string())));
        let dangling = doc
            .events
            .iter()
            .find(|e| e.name == "dangling")
            .expect("unfinished slice");
        assert!(dangling
            .args
            .contains(&("unfinished".to_string(), "true".to_string())));
    }

    #[test]
    fn normalized_strips_host_scheduling_detail() {
        let mut doc = ChromeTrace::new();
        doc.complete(PID_HOST, 9, "host.stage", "extract", 5.0, 2.0, Vec::new());
        doc.complete(PID_HOST, 3, CAT_HOST_WORKER, "w0", 5.0, 1.0, Vec::new());
        doc.flow_start(PID_HOST, 3, "host.batch", "handoff", 5.0, 42);
        doc.complete(PID_APP, 1, "app.send", "send", 7.0, 1.0, Vec::new());
        let norm = doc.normalized();
        assert_eq!(norm.events.len(), 2, "worker lane and host flow dropped");
        let host = norm.events.iter().find(|e| e.pid == PID_HOST).unwrap();
        assert_eq!((host.ts_us, host.dur_us, host.tid), (0.0, Some(0.0), 0));
        let app = norm.events.iter().find(|e| e.pid == PID_APP).unwrap();
        assert_eq!(app.ts_us, 7.0, "virtual domain untouched");
    }

    #[test]
    fn normalized_serialization_is_invariant_to_input_order() {
        let mut a = ChromeTrace::new();
        let mut b = ChromeTrace::new();
        a.complete(PID_HOST, 1, "host.stage", "s1", 1.0, 2.0, Vec::new());
        a.complete(PID_HOST, 2, "host.stage", "s2", 3.0, 4.0, Vec::new());
        b.complete(PID_HOST, 5, "host.stage", "s2", 8.0, 1.0, Vec::new());
        b.complete(PID_HOST, 6, "host.stage", "s1", 9.0, 2.0, Vec::new());
        assert_eq!(a.normalized().to_json(), b.normalized().to_json());
    }
}
