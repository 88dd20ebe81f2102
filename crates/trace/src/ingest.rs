//! Recovering trace ingest: decode as much as possible, quarantine the
//! rest, and report exactly what happened.
//!
//! A service must analyze whatever a half-dead run left behind, so
//! [`decode_recovering`], the only decoder of the binary format that
//! [`crate::format::encode`] writes, *resyncs* instead of aborting at
//! the first bad byte: only an unusable header is fatal. The format
//! makes that possible by construction: event records are fixed-size
//! ([`crate::format::EVENT_RECORD_BYTES`]), so after an undecodable or
//! implausible record the decoder can skip exactly one record slot and
//! try the next — corruption stays local to the record it hit. Whatever
//! cannot be salvaged (a truncated tail, a rank that never reported) is
//! quarantined and accounted for in an [`IngestReport`], never silently
//! dropped.
//!
//! The report is the contract with the rest of the pipeline: the core
//! pipeline decides between full-confidence and degraded analysis from
//! it, `pas2p-check` turns it into `INGEST-*` diagnostics, and the batch
//! driver classifies the job from it.

use crate::event::{EventKind, ProcessTrace, Trace};
use crate::format::{self, Cursor, EVENT_RECORD_BYTES};
use pas2p_obs::Counter;
use serde::{Deserialize, Serialize};

static RUNS: Counter = Counter::new("ingest.runs");
static RECORDS_RECOVERED: Counter = Counter::new("ingest.records_recovered");
static RECORDS_QUARANTINED: Counter = Counter::new("ingest.records_quarantined");
static BYTES_SKIPPED: Counter = Counter::new("ingest.bytes_skipped");
static RANKS_MISSING: Counter = Counter::new("ingest.ranks_missing");
static DEGRADED: Counter = Counter::new("ingest.degraded");
static COLLECTIVES_CLAMPED: Counter = Counter::new("ingest.collectives_clamped");

/// How much the pipeline's output can be trusted — the flag carried by
/// analyses, signatures and predictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Confidence {
    /// Every record of every rank decoded cleanly and no ordering hazard
    /// was detected.
    #[default]
    Full,
    /// The data is complete, but the happens-before analysis found
    /// message races overlapping phase occurrences (`SIG-STAB-001`): the
    /// recorded logical order is one of several the program admits, so
    /// signature and prediction results are order-sensitive.
    OrderSensitive,
    /// Records or whole ranks were quarantined; results describe the
    /// surviving subset of the run.
    Degraded,
}

impl std::fmt::Display for Confidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Confidence::Full => write!(f, "full"),
            Confidence::OrderSensitive => write!(f, "order-sensitive"),
            Confidence::Degraded => write!(f, "degraded"),
        }
    }
}

/// Per-rank ingest outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankHealth {
    /// Every record decoded cleanly.
    Intact,
    /// Some records were quarantined or renumbered; the rest survived.
    Recovered,
    /// The buffer ended before the rank's declared record count.
    Truncated,
    /// The rank's section never appeared in the buffer.
    Missing,
}

impl std::fmt::Display for RankHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankHealth::Intact => write!(f, "intact"),
            RankHealth::Recovered => write!(f, "recovered"),
            RankHealth::Truncated => write!(f, "truncated"),
            RankHealth::Missing => write!(f, "missing"),
        }
    }
}

/// One rank's ingest accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankIngest {
    /// The rank.
    pub rank: u32,
    /// Outcome class.
    pub health: RankHealth,
    /// Records the section header declared.
    pub records_expected: u64,
    /// Records that decoded and validated.
    pub records_recovered: u64,
    /// Records skipped as undecodable or implausible.
    pub records_quarantined: u64,
    /// Recovered records whose event number disagreed with their
    /// position (duplicates, reordering) and were renumbered.
    pub records_renumbered: u64,
}

/// What ingest did to one buffer: per-rank health plus whole-buffer
/// accounting. Every field is deterministic in the input bytes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Ranks the header promised.
    pub nprocs: u32,
    /// Per-rank outcomes, indexed by rank.
    pub ranks: Vec<RankIngest>,
    /// Input buffer size.
    pub bytes_total: u64,
    /// Bytes skipped over (quarantined records and unreadable tails).
    pub bytes_skipped: u64,
    /// Collective events whose `involved` count was clamped to the
    /// surviving participants so the ordering can complete (filled in by
    /// [`repair_collectives`], not by the decoder).
    #[serde(default)]
    pub collectives_clamped: u64,
    /// Set when the header itself was unusable: nothing was recovered.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fatal: Option<String>,
}

impl IngestReport {
    /// True when anything at all was lost, repaired, or renumbered.
    pub fn is_degraded(&self) -> bool {
        self.fatal.is_some()
            || self.bytes_skipped > 0
            || self.collectives_clamped > 0
            || self.ranks.iter().any(|r| r.health != RankHealth::Intact)
    }

    /// The confidence class an analysis built on this ingest carries.
    pub fn confidence(&self) -> Confidence {
        if self.is_degraded() {
            Confidence::Degraded
        } else {
            Confidence::Full
        }
    }

    /// Ranks whose section never appeared.
    pub fn missing_ranks(&self) -> Vec<u32> {
        self.ranks
            .iter()
            .filter(|r| r.health == RankHealth::Missing)
            .map(|r| r.rank)
            .collect()
    }

    /// Total records recovered across all ranks.
    pub fn records_recovered(&self) -> u64 {
        self.ranks.iter().map(|r| r.records_recovered).sum()
    }

    /// Total records quarantined across all ranks.
    pub fn records_quarantined(&self) -> u64 {
        self.ranks.iter().map(|r| r.records_quarantined).sum()
    }

    /// Deterministic multi-line rendering (no timings, no pointers) —
    /// safe to compare byte-for-byte across runs and worker counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(f) = &self.fatal {
            out.push_str(&format!("ingest: FATAL {}\n", f));
            return out;
        }
        out.push_str(&format!(
            "ingest: {} confidence, {}/{} bytes kept, {} record(s) quarantined, \
             {} collective(s) clamped\n",
            self.confidence(),
            self.bytes_total - self.bytes_skipped,
            self.bytes_total,
            self.records_quarantined(),
            self.collectives_clamped,
        ));
        for r in &self.ranks {
            if r.health == RankHealth::Intact {
                continue;
            }
            out.push_str(&format!(
                "  rank {:>3} {}: {}/{} records recovered, {} quarantined, {} renumbered\n",
                r.rank,
                r.health,
                r.records_recovered,
                r.records_expected,
                r.records_quarantined,
                r.records_renumbered,
            ));
        }
        out
    }

    fn fatal(buf_len: usize, why: String) -> IngestReport {
        IngestReport {
            bytes_total: buf_len as u64,
            bytes_skipped: buf_len as u64,
            fatal: Some(why),
            ..IngestReport::default()
        }
    }
}

/// A record survives quarantine only if its fields are plausible: a
/// valid kind tag, reserved bytes zero, finite timestamps, a peer that
/// names a rank (or none), and an involved count that fits the run. One
/// flipped bit in any of those fields condemns only its own record.
fn plausible(e: &crate::event::TraceEvent, nprocs: u32, last_complete: f64) -> bool {
    let times_ok = e.t_post.is_finite()
        && e.t_complete.is_finite()
        && e.t_post.abs() < 1e12
        && e.t_complete.abs() < 1e12
        && e.t_complete + 1e-12 >= e.t_post
        // Completions are monotone per process (`Trace::validate`).
        && e.t_complete + 1e-9 >= last_complete;
    let peer_ok = match e.peer {
        None => true,
        Some(p) => p < nprocs,
    };
    let involved_ok = match e.kind {
        EventKind::Coll(_) => e.involved >= 1 && e.involved <= nprocs,
        _ => e.involved == 1,
    };
    let wildcard_ok = !e.wildcard || e.kind == EventKind::Recv;
    times_ok && peer_ok && involved_ok && wildcard_ok
}

/// Decode with recovery: always returns a report; returns a trace unless
/// the header itself was unusable. The trace always has `nprocs`
/// process entries — ranks that never reported are present but empty,
/// so downstream indexing invariants hold.
pub fn decode_recovering(buf: &[u8]) -> (Option<Trace>, IngestReport) {
    let mut cur = Cursor { buf, pos: 0 };
    let header = match format::decode_header(&mut cur) {
        Ok(h) => h,
        Err(e) => {
            return (None, IngestReport::fatal(buf.len(), e.to_string()));
        }
    };
    // A corrupt rank count must not drive allocation: even one-record
    // sections need 20 header bytes each.
    let max_sections = buf.len() as u64 / 20 + 1;
    if header.nprocs == 0 || header.nprocs as u64 > max_sections {
        return (
            None,
            IngestReport::fatal(
                buf.len(),
                format!("implausible rank count {}", header.nprocs),
            ),
        );
    }
    let nprocs = header.nprocs;

    let mut report = IngestReport {
        nprocs,
        bytes_total: buf.len() as u64,
        ..IngestReport::default()
    };
    let mut slots: Vec<Option<ProcessTrace>> = (0..nprocs).map(|_| None).collect();
    let mut accounts: Vec<RankIngest> = (0..nprocs)
        .map(|rank| RankIngest {
            rank,
            health: RankHealth::Missing,
            records_expected: 0,
            records_recovered: 0,
            records_quarantined: 0,
            records_renumbered: 0,
        })
        .collect();

    // Walk the per-process sections until the buffer runs out. Section
    // headers we cannot read (truncated tail) end the walk; the ranks
    // not yet seen stay Missing.
    loop {
        if cur.pos >= buf.len() {
            break;
        }
        let section_start = cur.pos;
        let (process, count, end_time) = match (cur.u32(), cur.u64(), cur.f64()) {
            (Ok(p), Ok(c), Ok(t)) => (p, c, t),
            _ => {
                // A partial section header: unreadable tail.
                report.bytes_skipped += (buf.len() - section_start) as u64;
                break;
            }
        };
        if process >= nprocs || slots[process as usize].is_some() {
            // Garbage or duplicate section id — we cannot attribute what
            // follows, and with no in-band section framing the rest of
            // the buffer is unattributable too.
            report.bytes_skipped += (buf.len() - section_start) as u64;
            break;
        }
        let account = &mut accounts[process as usize];
        account.records_expected = count;

        let remaining = (buf.len() - cur.pos) as u64;
        let fit = remaining / EVENT_RECORD_BYTES;
        let readable = count.min(fit);
        let truncated = readable < count;

        let mut events = Vec::with_capacity(readable as usize);
        let mut last_complete = f64::NEG_INFINITY;
        for _ in 0..readable {
            let record_start = cur.pos;
            match format::decode_event(&mut cur, process) {
                Ok(e) if plausible(&e, nprocs, last_complete) => {
                    last_complete = e.t_complete;
                    events.push(e);
                }
                _ => {
                    // Resync: fixed-size records mean the next record
                    // starts exactly one slot later.
                    cur.pos = record_start + EVENT_RECORD_BYTES as usize;
                    account.records_quarantined += 1;
                    report.bytes_skipped += EVENT_RECORD_BYTES;
                }
            }
        }
        if truncated {
            let lost = buf.len() - cur.pos;
            report.bytes_skipped += lost as u64;
            cur.pos = buf.len();
        }

        // Renumber so `Trace::validate`'s dense-numbering invariant
        // holds; count every disagreement (duplicates, quarantine gaps).
        for (i, e) in events.iter_mut().enumerate() {
            if e.number != i as u64 {
                account.records_renumbered += 1;
                e.number = i as u64;
            }
        }
        account.records_recovered = events.len() as u64;
        // A corrupted end_time is repaired from the events themselves.
        let end_ok = end_time.is_finite()
            && end_time.abs() < 1e12
            && events
                .last()
                .map(|e| end_time >= e.t_complete)
                .unwrap_or(true);
        let end_time = if end_ok {
            end_time
        } else {
            events.last().map(|e| e.t_complete).unwrap_or(0.0)
        };
        account.health = if truncated {
            RankHealth::Truncated
        } else if account.records_quarantined > 0 || account.records_renumbered > 0 || !end_ok {
            RankHealth::Recovered
        } else {
            RankHealth::Intact
        };
        slots[process as usize] = Some(ProcessTrace {
            process,
            events,
            end_time,
        });
    }

    // Missing ranks become empty sections so `procs[rank]` stays valid
    // everywhere downstream.
    let procs: Vec<ProcessTrace> = slots
        .into_iter()
        .enumerate()
        .map(|(rank, s)| {
            s.unwrap_or(ProcessTrace {
                process: rank as u32,
                events: Vec::new(),
                end_time: 0.0,
            })
        })
        .collect();
    report.ranks = accounts;

    RUNS.inc();
    RECORDS_RECOVERED.add(report.records_recovered());
    RECORDS_QUARANTINED.add(report.records_quarantined());
    BYTES_SKIPPED.add(report.bytes_skipped);
    RANKS_MISSING.add(report.missing_ranks().len() as u64);
    if report.is_degraded() {
        DEGRADED.inc();
    }

    let trace = Trace {
        nprocs,
        machine: header.machine,
        procs,
    };
    (Some(trace), report)
}

/// Repair pass for degraded traces: clamp every collective event's
/// `involved` count to the participants actually present on its
/// communicator, so the PAS2P ordering can complete with the survivors
/// instead of waiting forever for a rank that never reported. Returns
/// the number of events clamped; callers fold it into their
/// [`IngestReport::collectives_clamped`].
pub fn repair_collectives(trace: &mut Trace) -> u64 {
    use std::collections::{HashMap, HashSet};
    // Participants per communicator: the distinct processes that logged
    // at least one collective on it.
    let mut members: HashMap<u64, HashSet<u32>> = HashMap::new();
    for p in &trace.procs {
        for e in &p.events {
            if matches!(e.kind, EventKind::Coll(_)) {
                members.entry(e.comm_id).or_default().insert(e.process);
            }
        }
    }
    let mut clamped = 0u64;
    for p in &mut trace.procs {
        for e in &mut p.events {
            if matches!(e.kind, EventKind::Coll(_)) {
                if let Some(m) = members.get(&e.comm_id) {
                    let present = m.len() as u32;
                    if e.involved > present {
                        e.involved = present;
                        clamped += 1;
                    }
                }
            }
        }
    }
    if clamped > 0 {
        COLLECTIVES_CLAMPED.add(clamped);
    }
    clamped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::format::encode;
    use pas2p_machine::CollectiveKind;

    fn mk(number: u64, process: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            number,
            process,
            t_post: number as f64,
            t_complete: number as f64 + 0.5,
            kind,
            peer: if matches!(kind, EventKind::Coll(_)) {
                None
            } else {
                Some((process + 1) % 2)
            },
            tag: 1,
            size: 64,
            involved: if matches!(kind, EventKind::Coll(_)) {
                2
            } else {
                1
            },
            msg_id: number + 1,
            comm_id: if matches!(kind, EventKind::Coll(_)) {
                7
            } else {
                0
            },
            wildcard: false,
        }
    }

    fn sample(nprocs: u32, events_per_rank: u64) -> Trace {
        Trace {
            nprocs,
            machine: "cluster-A".into(),
            procs: (0..nprocs)
                .map(|r| ProcessTrace {
                    process: r,
                    events: (0..events_per_rank)
                        .map(|i| {
                            mk(
                                i,
                                r,
                                match i % 3 {
                                    0 => EventKind::Send,
                                    1 => EventKind::Recv,
                                    _ => EventKind::Coll(CollectiveKind::Allreduce),
                                },
                            )
                        })
                        .collect(),
                    end_time: events_per_rank as f64,
                })
                .collect(),
        }
    }

    #[test]
    fn clean_buffer_ingests_at_full_confidence() {
        let t = sample(2, 9);
        let (got, report) = decode_recovering(&encode(&t));
        assert_eq!(got.unwrap(), t);
        assert!(!report.is_degraded());
        assert_eq!(report.confidence(), Confidence::Full);
        assert_eq!(report.records_recovered(), 18);
        assert!(report.render().contains("full confidence"));
    }

    #[test]
    fn bad_magic_is_fatal_but_reported() {
        let mut buf = encode(&sample(2, 3));
        buf[0] = b'X';
        let (got, report) = decode_recovering(&buf);
        assert!(got.is_none());
        assert!(report.fatal.as_deref().unwrap().contains("magic"));
        assert!(report.is_degraded());
        assert!(report.render().starts_with("ingest: FATAL"));
    }

    /// A header claiming more ranks than the buffer has room for sections
    /// is fatal before a slot is allocated; so is a header claiming none.
    #[test]
    fn an_implausible_rank_count_is_fatal() {
        for nprocs in [0u32, 1000] {
            let mut buf = encode(&sample(2, 3));
            // After the 8-byte magic and the 4-byte version.
            buf[12..16].copy_from_slice(&nprocs.to_le_bytes());
            let (got, report) = decode_recovering(&buf);
            assert!(got.is_none(), "nprocs {nprocs}");
            let expected = format!("implausible rank count {nprocs}");
            assert_eq!(report.fatal.as_deref(), Some(expected.as_str()));
        }
    }

    #[test]
    fn truncated_tail_recovers_the_prefix() {
        let t = sample(2, 10);
        let buf = encode(&t);
        // Cut inside rank 1's records.
        let cut = buf.len() - (3 * EVENT_RECORD_BYTES as usize) - 7;
        let (got, report) = decode_recovering(&buf[..cut]);
        let got = got.unwrap();
        assert_eq!(got.procs[0].events.len(), 10);
        assert_eq!(report.ranks[0].health, RankHealth::Intact);
        assert_eq!(report.ranks[1].health, RankHealth::Truncated);
        assert!(report.ranks[1].records_recovered < 10);
        assert!(report.is_degraded());
        assert!(report.bytes_skipped > 0);
    }

    #[test]
    fn corrupt_record_is_quarantined_and_resynced() {
        let t = sample(2, 6);
        let mut buf = encode(&t);
        // Clobber the kind tag of record 2 of rank 0: header is
        // 8+4+4+4+9 = 29 bytes, section header 20 bytes, then records.
        let rec2 = 29 + 20 + 2 * EVENT_RECORD_BYTES as usize;
        buf[rec2 + 24] = 0xff; // kind tag byte
        let (got, report) = decode_recovering(&buf);
        let got = got.unwrap();
        assert_eq!(got.procs[0].events.len(), 5);
        assert_eq!(got.procs[1].events.len(), 6);
        assert_eq!(report.ranks[0].records_quarantined, 1);
        assert_eq!(report.ranks[0].health, RankHealth::Recovered);
        // Records after the bad one survive (resync worked) and were
        // renumbered to stay dense.
        assert!(report.ranks[0].records_renumbered > 0);
        got.validate().expect("recovered trace upholds invariants");
    }

    #[test]
    fn missing_rank_yields_empty_section() {
        let mut t = sample(3, 4);
        t.procs.remove(1); // rank 1 never reported
        let (got, report) = decode_recovering(&encode(&t));
        let got = got.unwrap();
        assert_eq!(got.procs.len(), 3);
        assert_eq!(got.procs[1].events.len(), 0);
        assert_eq!(got.procs[1].process, 1);
        assert_eq!(report.missing_ranks(), vec![1]);
        assert_eq!(report.ranks[1].health, RankHealth::Missing);
        assert!(report.is_degraded());
    }

    #[test]
    fn duplicate_events_are_renumbered() {
        let mut t = sample(2, 5);
        let dup = t.procs[0].events[2].clone();
        t.procs[0].events.insert(3, dup);
        let (got, report) = decode_recovering(&encode(&t));
        let got = got.unwrap();
        assert_eq!(got.procs[0].events.len(), 6);
        assert!(report.ranks[0].records_renumbered > 0);
        assert_eq!(report.ranks[0].health, RankHealth::Recovered);
        got.validate().expect("renumbering restores density");
    }

    #[test]
    fn nonfinite_end_time_is_repaired() {
        let mut t = sample(2, 3);
        t.procs[0].end_time = f64::NAN;
        let (got, report) = decode_recovering(&encode(&t));
        let got = got.unwrap();
        assert!(got.procs[0].end_time.is_finite());
        assert_eq!(report.ranks[0].health, RankHealth::Recovered);
    }

    #[test]
    fn empty_buffer_is_fatal() {
        let (got, report) = decode_recovering(&[]);
        assert!(got.is_none());
        assert!(report.fatal.is_some());
    }

    #[test]
    fn repair_clamps_collectives_to_survivors() {
        let mut t = sample(3, 9); // involved is wrong (2) but > survivors? use custom
                                  // Make the collectives claim all 3 ranks, then drop rank 2.
        for p in &mut t.procs {
            for e in &mut p.events {
                if matches!(e.kind, EventKind::Coll(_)) {
                    e.involved = 3;
                }
            }
        }
        t.procs.remove(2);
        let (got, _) = decode_recovering(&encode(&t));
        let mut got = got.unwrap();
        let clamped = repair_collectives(&mut got);
        assert!(clamped > 0);
        for p in &got.procs {
            for e in &p.events {
                if matches!(e.kind, EventKind::Coll(_)) {
                    assert_eq!(e.involved, 2, "clamped to surviving participants");
                }
            }
        }
        // Intact trace: repair is a no-op.
        let mut clean = sample(2, 6);
        assert_eq!(repair_collectives(&mut clean), 0);
    }

    #[test]
    fn report_render_is_deterministic() {
        let t = sample(2, 10);
        let buf = encode(&t);
        let cut = buf.len() - 40;
        let (_, a) = decode_recovering(&buf[..cut]);
        let (_, b) = decode_recovering(&buf[..cut]);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }
}
