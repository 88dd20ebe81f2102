//! Accounting of what opening and serving from a store had to do —
//! the `IngestReport` pattern applied to the repository: nothing the
//! store repairs is silent, everything it repairs is classified.
//!
//! # Rule codes
//!
//! * `STORE-IDX-001` — the index file was missing or unreadable and was
//!   rebuilt by scanning the object files (Warning).
//! * `STORE-VER-001` — entries written under an older store format
//!   version were evicted at open (Info: expected on upgrades).
//! * `STORE-CORRUPT-001` — an object failed its checksum, did not
//!   parse or is not text; the entry was evicted and the artifact
//!   recomputed (Warning).
//! * `STORE-OBJ-001` — the index pointed at an object file that no
//!   longer exists; the dangling entry was evicted (Warning).
//! * `STORE-TMP-001` — stale temp files from crashed writes were
//!   removed by the startup recovery pass (Info: the crash-durability
//!   protocol working as designed).

use pas2p_check::{Diagnostic, Location, Severity};
use serde::{Deserialize, Serialize};

/// What the store repaired, evicted and rebuilt. Carried by
/// [`crate::SignatureStore`] and folded into service responses.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreReport {
    /// The index file was missing/unreadable and was reconstructed from
    /// the object files on disk.
    pub index_rebuilt: bool,
    /// Entries alive in the index after open-time validation.
    pub entries_loaded: usize,
    /// Entries evicted at open because they were written under a
    /// different [`crate::STORE_FORMAT_VERSION`].
    pub evicted_version: usize,
    /// Entries evicted (at open or on access) because the object file
    /// failed its checksum or did not parse.
    pub evicted_corrupt: usize,
    /// Entries evicted because the index pointed at a missing object.
    pub evicted_missing: usize,
    /// Stale temp files (crashed writes) removed at open by the
    /// recovery pass.
    #[serde(default)]
    pub temps_removed: usize,
    /// One line per corrupt/missing object: digest prefix plus reason.
    pub eviction_log: Vec<String>,
}

impl StoreReport {
    /// True when the store opened clean: nothing rebuilt, nothing
    /// evicted.
    pub fn is_clean(&self) -> bool {
        !self.index_rebuilt
            && self.evicted_version == 0
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
        if self.index_rebuilt {
            out.push(
                Diagnostic::new(
                    "STORE-IDX-001",
                    Severity::Warning,
                    Location::none(),
                    format!(
                        "store index was missing or unreadable; rebuilt from object files \
                         ({} entries recovered)",
                        self.entries_loaded
                    ),
                )
                .with_suggestion(
                    "aliases and entries were re-derived from object metadata; verify the \
                     store directory is not shared by concurrent writers",
                ),
            );
        }
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
                        "{} index entr(ies) pointed at missing object files and were evicted",
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
                     by the recovery pass",
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
            index_rebuilt: true,
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
            vec![
                "STORE-IDX-001",
                "STORE-VER-001",
                "STORE-CORRUPT-001",
                "STORE-OBJ-001"
            ]
        );
        let render = report.render();
        assert!(render.contains("deadbeefdead: checksum mismatch"));
        assert!(
            render.contains("STORE-CORRUPT-001 [-] 1 corrupt object(s) evicted"),
            "{render}"
        );
    }
}
