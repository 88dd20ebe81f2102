//! Every rule code the shipped families can emit, declared once: the
//! SARIF rule list and the per-rule hit counters both read [`RULES`].

use pas2p_obs::Counter;

/// `(code, hit counter, short description)`, sorted by code. The
/// counter is named after the code; the description is what SARIF
/// viewers surface and names what the rule checks (DESIGN.md,
/// "Invariant rules").
#[rustfmt::skip] // one rule per line
pub static RULES: [(&str, Counter, &str); 32] = [
    ("DLK-POT-001",      Counter::new("check.hit.dlk_pot_001"),       "An alternative wildcard matching wedges: potential deadlock"),
    ("INGEST-DUP-001",   Counter::new("check.hit.ingest_dup_001"),    "Recovering decoder renumbered duplicate records"),
    ("INGEST-FATAL-001", Counter::new("check.hit.ingest_fatal_001"),  "Trace buffer unusable"),
    ("INGEST-RANK-001",  Counter::new("check.hit.ingest_rank_001"),   "A rank never appeared in the trace"),
    ("INGEST-REC-001",   Counter::new("check.hit.ingest_rec_001"),    "Records quarantined during ingest"),
    ("INGEST-TRUNC-001", Counter::new("check.hit.ingest_trunc_001"),  "A trace section was truncated"),
    ("LT-COLL-001",      Counter::new("check.hit.lt_coll_001"),       "A collective is split across logical ticks"),
    ("LT-RECV-001",      Counter::new("check.hit.lt_recv_001"),       "A receive is placed before its send"),
    ("MODEL-CONS-001",   Counter::new("check.hit.model_cons_001"),    "Events lost or invented by the relayout"),
    ("MODEL-ORDER-001",  Counter::new("check.hit.model_order_001"),   "Program order broken on the tick axis"),
    ("MODEL-SPAN-001",   Counter::new("check.hit.model_span_001"),    "Phase occurrence with negative global span"),
    ("MODEL-TICK-001",   Counter::new("check.hit.model_tick_001"),    "Two events of one process share a tick"),
    ("MSG-RACE-001",     Counter::new("check.hit.msg_race_001"),      "Wildcard receive race changes the recorded event structure"),
    ("MSG-RACE-002",     Counter::new("check.hit.msg_race_002"),      "Wildcard receive can steal a deterministic receive's message"),
    ("P2P-MATCH-001",    Counter::new("check.hit.p2p_match_001"),     "Send without a matching receive"),
    ("P2P-MATCH-002",    Counter::new("check.hit.p2p_match_002"),     "Receive without a matching send"),
    ("P2P-MATCH-003",    Counter::new("check.hit.p2p_match_003"),     "Matched pair disagrees on size"),
    ("P2P-MATCH-004",    Counter::new("check.hit.p2p_match_004"),     "Matched pair disagrees on endpoints"),
    ("P2P-MATCH-005",    Counter::new("check.hit.p2p_match_005"),     "Matched pair disagrees on tag"),
    ("PET-EQ-001",       Counter::new("check.hit.pet_eq_001"),        "PET reconstruction identity fails"),
    ("PET-EQ-002",       Counter::new("check.hit.pet_eq_002"),        "AET is not positive: the PET identity is undefined"),
    ("SIG-COV-001",      Counter::new("check.hit.sig_cov_001"),       "Low relevant coverage"),
    ("SIG-OCC-001",      Counter::new("check.hit.sig_occ_001"),       "Occurrences do not tile the trace"),
    ("SIG-REL-001",      Counter::new("check.hit.sig_rel_001"),       "Table rows disagree with the analysis"),
    ("SIG-ROW-001",      Counter::new("check.hit.sig_row_001"),       "Signature row bookkeeping broken"),
    ("SIG-SIM-001",      Counter::new("check.hit.sig_sim_001"),       "Similarity bookkeeping broken (merge)"),
    ("SIG-SIM-002",      Counter::new("check.hit.sig_sim_002"),       "Similarity bookkeeping broken (split)"),
    ("SIG-STAB-001",     Counter::new("check.hit.sig_stab_001"),      "Phase occurrences overlap a message-race window"),
    ("SIG-W-001",        Counter::new("check.hit.sig_w_001"),         "Phase weight disagrees with occurrence count"),
    ("WFG-CYCLE-001",    Counter::new("check.hit.wfg_cycle_001"),     "The traced order deadlocks under deterministic replay"),
    ("WILD-RECV-001",    Counter::new("check.hit.wild_recv_001"),     "Wildcard-source receives posted"),
    ("WILD-RECV-002",    Counter::new("check.hit.wild_recv_002"),     "Symmetric wildcard race: order-dependent match, stable structure"),
];

/// The hits of a code outside the table, which share one counter.
static OTHER_HITS: Counter = Counter::new("check.hit.other");

/// A code's hit counter.
pub(crate) fn hits(code: &str) -> &'static Counter {
    RULES
        .iter()
        .find(|rule| rule.0 == code)
        .map_or(&OTHER_HITS, |rule| &rule.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULE_SOURCES: [&str; 5] = [
        include_str!("ingest_rules.rs"),
        include_str!("model_rules.rs"),
        include_str!("race_rules.rs"),
        include_str!("signature_rules.rs"),
        include_str!("trace_rules.rs"),
    ];

    /// `XXX-YYY-NNN`: upper-case alphanumeric parts, three digits last.
    fn is_rule_code(s: &str) -> bool {
        let parts: Vec<&str> = s.split('-').collect();
        let Some((number, names)) = parts.split_last() else {
            return false;
        };
        names.len() >= 2
            && number.len() == 3
            && number.bytes().all(|b| b.is_ascii_digit())
            && names.iter().all(|n| {
                !n.is_empty()
                    && n.bytes()
                        .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit())
            })
    }

    /// Every code a rule file spells is declared in the table, exactly
    /// once, with the metric its name implies; every row is emitted by
    /// some rule; and the descriptions of the four rules SARIF used to
    /// mislabel name what `check_pair` / `check_pet_identity` test.
    #[test]
    fn every_emitted_code_is_declared_once_and_described_as_checked() {
        for pair in RULES.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "{} out of order or repeated",
                pair[1].0
            );
        }
        for (code, hits, description) in &RULES {
            let implied = format!("check.hit.{}", code.to_lowercase().replace('-', "_"));
            assert_eq!(hits.name(), implied, "{code}");
            assert!(!description.is_empty(), "{code}");
        }
        // Quoted literals: every other piece of a split on `"`; checking
        // all pieces is a superset and needs no escape handling.
        let emitted: std::collections::BTreeSet<&str> = RULE_SOURCES
            .iter()
            .flat_map(|src| src.split('"'))
            .filter(|s| is_rule_code(s))
            .collect();
        for code in &emitted {
            assert_ne!(
                hits(code).name(),
                "check.hit.other",
                "{code} is not in RULES"
            );
        }
        for (code, ..) in &RULES {
            assert!(emitted.contains(code), "{code} is emitted by no rule file");
        }
        for (code, checked) in [
            ("P2P-MATCH-003", "size"),
            ("P2P-MATCH-004", "endpoints"),
            ("P2P-MATCH-005", "tag"),
            ("PET-EQ-002", "AET"),
        ] {
            let description = RULES.iter().find(|r| r.0 == code).expect("tabled").2;
            assert!(description.contains(checked), "{code}: {description}");
        }
    }

    /// The crate documentation lists the rule families by code: a rule
    /// added to the table is added there.
    #[test]
    fn every_code_is_listed_in_the_crate_documentation() {
        let docs = include_str!("lib.rs");
        for (code, ..) in &RULES {
            assert!(
                docs.contains(&format!("`{code}`")),
                "{code} is not in lib.rs"
            );
        }
    }

    #[test]
    fn hits_is_total() {
        assert_eq!(hits("LT-RECV-001").name(), "check.hit.lt_recv_001");
        assert_eq!(hits("MSG-RACE-001").name(), "check.hit.msg_race_001");
        assert_eq!(hits("NO-SUCH-999").name(), "check.hit.other");
    }
}
