//! Accounting of what opening and serving from a store had to do —
//! the `IngestReport` pattern applied to the repository: nothing the
//! store repairs is silent, everything it repairs is classified.
//!
//! # Rule codes
//!
//! * `STORE-VER-001` — objects written under another store format
//!   version were evicted at open (Info: expected on upgrades).
//! * `STORE-CORRUPT-001` — an object failed its checksum, did not
//!   parse, is not text or names another digest than its file; it was
//!   evicted, at open or on a get, and the artifact is recomputed
//!   (Warning).
//! * `STORE-OBJ-001` — a get found the object file of a loaded entry
//!   gone; the entry was evicted (Warning).
//! * `STORE-TMP-001` — stale temp files from crashed writes were
//!   removed at open (Info: the crash-durability protocol working as
//!   designed).

use pas2p_check::{Diagnostic, Location, Severity};
use serde::{Deserialize, Serialize};

/// What the store repaired and evicted. Carried by
/// [`crate::SignatureStore`] and folded into service responses.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreReport {
    /// Entries alive in the index after open-time validation.
    pub entries_loaded: usize,
    /// Objects evicted at open because they were written under a
    /// different [`crate::STORE_FORMAT_VERSION`].
    pub evicted_version: usize,
    /// Objects evicted (at open or on access) because the file failed
    /// its checksum, did not parse or named another digest.
    pub evicted_corrupt: usize,
    /// Entries evicted because a get found their object file gone.
    pub evicted_missing: usize,
    /// Stale temp files (crashed writes) removed at open.
    #[serde(default)]
    pub temps_removed: usize,
    /// One line per corrupt/missing object: digest prefix plus reason.
    pub eviction_log: Vec<String>,
}

impl StoreReport {
    /// True when the store opened clean: nothing evicted, nothing
    /// swept.
    pub fn is_clean(&self) -> bool {
        self.evicted_version == 0
            && self.evicted_corrupt == 0
            && self.evicted_missing == 0
            && self.temps_removed == 0
    }

    pub(crate) fn log_eviction(&mut self, digest: &str, reason: &str) {
        let prefix = &digest[..digest.len().min(12)];
        self.eviction_log.push(format!("{prefix}: {reason}"));
    }

    /// Human-readable accounting: the entries loaded, one line per
    /// [`StoreReport::diagnostics`] finding, then the eviction log.
    pub fn render(&self) -> String {
        let mut out = format!("{} entr(ies) loaded\n", self.entries_loaded);
        for d in self.diagnostics() {
            out.push_str(&format!("{d}\n"));
        }
        for line in &self.eviction_log {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }

    /// The report as `STORE-*` diagnostics, in the same shape the check
    /// engine's rule families produce — so CLI and service surfaces can
    /// render store findings next to `INGEST-*` ones. (The store crate
    /// sits *above* `pas2p-check` in the dependency graph, so these are
    /// produced here rather than by a `Checker` inside the engine.)
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.evicted_version > 0 {
            out.push(
                Diagnostic::new(
                    "STORE-VER-001",
                    Severity::Info,
                    Location::none(),
                    format!(
                        "{} entr(ies) from an older store format version were evicted",
                        self.evicted_version
                    ),
                )
                .with_suggestion(
                    "expected after a format-version bump; artifacts recompute on demand",
                ),
            );
        }
        if self.evicted_corrupt > 0 {
            out.push(
                Diagnostic::new(
                    "STORE-CORRUPT-001",
                    Severity::Warning,
                    Location::none(),
                    format!(
                        "{} corrupt object(s) evicted (checksum or parse failure)",
                        self.evicted_corrupt
                    ),
                )
                .with_suggestion(
                    "the artifacts will be recomputed on the next request; check the \
                     storage medium if this recurs",
                ),
            );
        }
        if self.evicted_missing > 0 {
            out.push(
                Diagnostic::new(
                    "STORE-OBJ-001",
                    Severity::Warning,
                    Location::none(),
                    format!(
                        "{} entr(ies) found their object file gone on a read and were evicted",
                        self.evicted_missing
                    ),
                )
                .with_suggestion("object files were deleted outside the store API"),
            );
        }
        if self.temps_removed > 0 {
            out.push(
                Diagnostic::new(
                    "STORE-TMP-001",
                    Severity::Info,
                    Location::none(),
                    format!(
                        "{} stale temp file(s) from interrupted writes were removed at open",
                        self.temps_removed
                    ),
                )
                .with_suggestion(
                    "expected after a crash mid-write; the published objects were verified \
                     when the store opened",
                ),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_has_no_diagnostics() {
        let report = StoreReport {
            entries_loaded: 3,
            ..StoreReport::default()
        };
        assert!(report.is_clean());
        assert!(report.diagnostics().is_empty());
        assert!(report.render().contains("3 entr(ies) loaded"));
    }

    #[test]
    fn every_repair_surfaces_a_code() {
        let mut report = StoreReport {
            entries_loaded: 1,
            evicted_version: 2,
            evicted_corrupt: 1,
            evicted_missing: 1,
            ..StoreReport::default()
        };
        report.log_eviction("deadbeefdeadbeefdeadbeef", "checksum mismatch");
        assert!(!report.is_clean());
        let codes: Vec<String> = report
            .diagnostics()
            .iter()
            .map(|d| d.code.clone())
            .collect();
        assert_eq!(
            codes,
            vec!["STORE-VER-001", "STORE-CORRUPT-001", "STORE-OBJ-001"]
        );
        let render = report.render();
        assert!(render.contains("deadbeefdead: checksum mismatch"));
        assert!(
            render.contains("STORE-CORRUPT-001 [-] 1 corrupt object(s) evicted"),
            "{render}"
        );
    }
}
