//! The on-disk repository: one object file per artifact, every byte of
//! it accounted for. The objects are the index: each embeds its
//! [`IndexEntry`], and opening derives the index from them.
//!
//! # Layout
//!
//! ```text
//! <root>/objects/<digest>.json    wrapper { checksum, digest, entry, payload, sidecar? }
//! <root>/index.json               digest → entry, alias → digest: written by each put, never read
//! ```
//!
//! The payload — the signature itself (its phase table, checkpoints and
//! confidence flag) and three numbers of the traced run — is stored as
//! one canonical JSON string, covered by a SHA-256 checksum and free of
//! host wall-clock values, so the same inputs always produce the same
//! payload bytes (this is what the digest-stability tests pin). The one
//! volatile observation, the analysis's TFAT seconds, rides in a
//! signature's sidecar outside the checksum; a prediction has none.
//!
//! Both file kinds are derived structs, fields in written order (sorted
//! by name): `StoreIndex`, `StoredObject`, [`IndexEntry`] and [`Sidecar`]
//! *are* the durable format, pinned by the unit tests; reading ignores
//! unknown keys. A signature payload, keys sorted too, is written by
//! hand: it stores fewer fields than [`StoredSignature`] has.
//!
//! Writes are crash-durable (`write_atomic`). Corruption is handled
//! twice: opening reads and verifies every object once, evicting torn
//! and other-version ones, and a read from the file verifies that object
//! again; every eviction is reported ([`crate::StoreReport`]) and the
//! caller recomputes.
//!
//! All filesystem access goes through a [`StoreIo`] (see [`crate::io`]),
//! so the fault-injection harness can tear writes, shorten reads and
//! fail renames/fsyncs deterministically.

use crate::digest::sha256_hex;
use crate::io::{RealIo, StoreIo};
use crate::key::{signature_alias, StoreKey, STORE_FORMAT_VERSION};
use crate::report::StoreReport;
use pas2p_obs::{Counter, Gauge};
use pas2p_phases::{PhaseAnalysis, PhaseTable};
use pas2p_signature::Signature;
use pas2p_trace::Confidence;
use serde::{Deserialize, Error, Serialize, Sink, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Reads that found their object; the service counts its kept replies.
pub static HITS: Counter = Counter::new("store.hit");
static MISSES: Counter = Counter::new("store.miss");
static EVICTS: Counter = Counter::new("store.evict");
static PUTS: Counter = Counter::new("store.put");
static ENTRIES: Gauge = Gauge::new("store.entries");

/// What kind of artifact an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ArtifactKind {
    /// A constructed signature plus its analysis artifacts.
    Signature,
    /// A canonical prediction produced by executing a signature.
    Prediction,
}

/// Index metadata for one entry, embedded in its object: opening derives
/// the index (and the alias map) from these alone. Like every struct of
/// a store file, it is written by its derive: field order here is byte
/// order on disk, so a new field goes where its name sorts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// Application name.
    pub app: String,
    /// Base machine name.
    pub base: String,
    /// Configuration fingerprint baked into the entry's key.
    pub fingerprint: String,
    /// Store format version the entry was written under.
    pub format_version: u32,
    /// Artifact kind.
    pub kind: ArtifactKind,
    /// Process count.
    pub nprocs: u32,
    /// Target machine name (predictions only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub target: Option<String>,
    /// Workload description.
    pub workload: String,
}

impl IndexEntry {
    /// The alias a signature's entry answers to (see [`signature_alias`]);
    /// predictions have none.
    fn alias(&self) -> Option<String> {
        (self.kind == ArtifactKind::Signature).then(|| {
            signature_alias(
                &self.app,
                &self.workload,
                self.nprocs,
                &self.base,
                &self.fingerprint,
            )
        })
    }
}

/// The byte-stable signature payload: what Stage B and the replies read,
/// deterministic for the key's inputs. Host timings live in the
/// [`Sidecar`], not here.
///
/// Format 3 writes four keys, sorted by name: `aet_instrumented`,
/// `signature`, `trace_bytes` and `trace_events`. The names, the
/// confidence flag and the table are the signature's own and are read
/// back from it; the phase analysis is not stored.
#[derive(Debug, Clone)]
pub struct StoredSignature {
    /// Application name (the signature's).
    pub app_name: String,
    /// Workload description (the signature's).
    pub workload: String,
    /// Process count (the signature's).
    pub nprocs: u32,
    /// Base machine name (the signature's).
    pub base_machine: String,
    /// Trace size in bytes (TFSize).
    pub trace_bytes: u64,
    /// Total recorded events.
    pub trace_events: usize,
    /// Virtual instrumented execution time (AET_PAS2P).
    pub aet_instrumented: f64,
    /// Analysis confidence flag (the signature's).
    pub confidence: Confidence,
    /// Not stored: a read leaves it with no phases and `aet` from the
    /// table. It stays because `benchmark/src/ledger.rs` builds this
    /// struct by literal.
    pub analysis: PhaseAnalysis,
    /// The phase table feeding construction (the signature's).
    pub table: PhaseTable,
    /// The constructed signature (phase rows + checkpoints + config).
    pub signature: Signature,
}

impl Serialize for StoredSignature {
    fn serialize(&self, out: &mut dyn Sink) {
        out.begin_map();
        out.key("aet_instrumented");
        self.aet_instrumented.serialize(out);
        out.key("signature");
        self.signature.serialize(out);
        out.key("trace_bytes");
        self.trace_bytes.serialize(out);
        out.key("trace_events");
        self.trace_events.serialize(out);
        out.end_map();
    }
}

impl Deserialize for StoredSignature {
    fn deserialize(v: Value) -> Result<Self, Error> {
        let mut m = match v {
            Value::Object(m) => m,
            other => return Err(Error::invalid_type(&other, "a signature payload")),
        };
        let mut take = |name: &str| m.remove(name).ok_or_else(|| Error::missing_field(name));
        let aet_instrumented = f64::deserialize(take("aet_instrumented")?)?;
        let signature = Signature::deserialize(take("signature")?)?;
        let trace_bytes = u64::deserialize(take("trace_bytes")?)?;
        let trace_events = usize::deserialize(take("trace_events")?)?;
        let table = signature.table.clone();
        Ok(StoredSignature {
            app_name: signature.app_name.clone(),
            workload: signature.workload.clone(),
            nprocs: signature.nprocs,
            base_machine: signature.base_machine.clone(),
            trace_bytes,
            trace_events,
            aet_instrumented,
            confidence: signature.confidence,
            analysis: PhaseAnalysis {
                nprocs: signature.nprocs,
                phases: Vec::new(),
                aet: table.aet_base,
                analysis_seconds: 0.0,
                negative_spans: 0,
            },
            table,
            signature,
        })
    }
}

/// Volatile observations attached to an entry outside the checksum:
/// they describe the producing host run, not the artifact. A
/// sidecar that also holds a `metrics` snapshot, as older objects' do,
/// reads the same: unknown keys are ignored.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Sidecar {
    /// Host seconds the producing analysis spent (TFAT).
    #[serde(default)]
    pub tfat_seconds: f64,
}

/// One object file: metadata + checksummed payload + a signature's
/// sidecar (a prediction has none).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoredObject {
    checksum: String,
    digest: String,
    entry: IndexEntry,
    payload: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    sidecar: Option<Sidecar>,
}

/// The index: built by `open_with_io` from the objects, written to
/// `index.json` by every put and never read back.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct StoreIndex {
    aliases: BTreeMap<String, String>,
    entries: BTreeMap<String, IndexEntry>,
    format_version: u32,
}

/// A store operation failed at the filesystem or encoding layer.
/// Corrupt *entries* are not errors — they are evictions recorded in
/// the [`StoreReport`]; this type is for the store itself being
/// unusable (unwritable directory, full disk).
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem operation failed.
    Io(String),
    /// An artifact could not be serialized.
    Encode(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Encode(e) => write!(f, "store encoding error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(context: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {e}"))
}

/// Why an entry leaves the index (see `SignatureStore::forget`).
#[derive(Clone, Copy, PartialEq)]
enum Evicted {
    /// Written under another store format version.
    Version,
    /// The object is torn or tampered with.
    Corrupt,
    /// A get found its indexed object file gone.
    Missing,
    /// Another configuration's entry (`evict_stale_configs`).
    Config,
}

/// The content-addressed signature repository.
pub struct SignatureStore {
    root: PathBuf,
    index: StoreIndex,
    report: StoreReport,
    io: Box<dyn StoreIo>,
}

impl SignatureStore {
    /// Open (or create) a store rooted at `root`, with production I/O.
    pub fn open(root: impl Into<PathBuf>) -> Result<SignatureStore, StoreError> {
        Self::open_with_io(root, Box::new(RealIo))
    }

    /// Open (or create) a store rooted at `root`, performing all
    /// filesystem access through `io` (the chaos harness passes a
    /// fault-injecting implementation here).
    ///
    /// The objects are the index: opening reads every `objects/*.json`
    /// once and verifies it as a get does (it parses, names its own
    /// file, and its payload matches its checksum). A verified object of
    /// this format version is registered with its alias; one written
    /// under another version is evicted, and so is a torn or misnamed
    /// one, its file removed. Stale temp files from crashed writes are
    /// removed. `index.json` is never read. Everything done is recorded
    /// in [`SignatureStore::report`]; every get reads the file and
    /// verifies the object again.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        io: Box<dyn StoreIo>,
    ) -> Result<SignatureStore, StoreError> {
        let root = root.into();
        let objects = root.join("objects");
        io.create_dir_all(&objects)
            .map_err(|e| io_err("creating store directories", e))?;
        let mut store = SignatureStore {
            index: StoreIndex {
                format_version: STORE_FORMAT_VERSION,
                ..StoreIndex::default()
            },
            report: StoreReport::default(),
            io,
            root,
        };
        // A crash between temp-write and rename leaves a `*.tmp` behind,
        // next to the index or among the objects: never addressable.
        let root_files = store.io.list_dir(&store.root).unwrap_or_default();
        let object_files = store
            .io
            .list_dir(&objects)
            .map_err(|e| io_err("listing store objects", e))?;
        for path in root_files.iter().chain(&object_files) {
            if path.extension().and_then(|e| e.to_str()) == Some("tmp")
                && store.io.remove_file(path).is_ok()
            {
                store.report.temps_removed += 1;
            }
        }
        for path in &object_files {
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            if let Some(digest) = path.file_stem().and_then(|s| s.to_str()) {
                store.load(digest);
            }
        }
        store.report.entries_loaded = store.index.entries.len();
        Ok(store)
    }

    /// The open pass for one object file: verify it end to end, then
    /// register it or evict it. A file that cannot be read at all (gone
    /// since the listing) is no entry and nothing to evict.
    fn load(&mut self, digest: &str) {
        match self.read_object(digest) {
            Ok(obj) if obj.entry.format_version == STORE_FORMAT_VERSION => {
                self.register(digest, obj.entry);
            }
            // The key derivation is versioned, so another version's
            // object could never be addressed again anyway.
            Ok(_) => self.forget(digest, Evicted::Version, "stale format version"),
            Err((Evicted::Missing, _)) => {}
            Err((why, reason)) => self.forget(digest, why, &format!("startup recovery: {reason}")),
        }
    }

    /// Index a verified object of this version under its digest and
    /// alias. Two live objects can share an alias only when two writers
    /// shared the directory; the smallest digest wins, whatever order
    /// the directory listed them in.
    fn register(&mut self, digest: &str, entry: IndexEntry) {
        if let Some(alias) = entry.alias() {
            let named = self
                .index
                .aliases
                .entry(alias)
                .or_insert_with(|| digest.to_string());
            if digest < named.as_str() {
                *named = digest.to_string();
            }
        }
        self.index.entries.insert(digest.to_string(), entry);
    }

    /// The one way an entry leaves the index: its aliases go with it,
    /// its object file is removed unless that is what is missing, and
    /// the eviction is counted and classified in the report.
    fn forget(&mut self, digest: &str, why: Evicted, reason: &str) {
        self.index.entries.remove(digest);
        self.index.aliases.retain(|_, d| d != digest);
        if why != Evicted::Missing {
            let _ = self.io.remove_file(&self.object_path(digest));
        }
        EVICTS.inc();
        match why {
            Evicted::Version => self.report.evicted_version += 1,
            Evicted::Corrupt => self.report.evicted_corrupt += 1,
            Evicted::Missing => self.report.evicted_missing += 1,
            Evicted::Config => {}
        }
        self.report.log_eviction(digest, reason);
    }

    /// Read one object and verify it end to end: the envelope parses,
    /// names `digest`, and carries the payload its checksum covers. The
    /// error is how the entry should leave the index, and why.
    fn read_object(&self, digest: &str) -> Result<StoredObject, (Evicted, &'static str)> {
        let text = match self.io.read_to_string(&self.object_path(digest)) {
            Ok(text) => text,
            // There, and not text: rot, not absence.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err((Evicted::Corrupt, "object is not UTF-8"));
            }
            Err(_) => return Err((Evicted::Missing, "object file missing")),
        };
        let obj: StoredObject =
            serde_json::from_str(&text).map_err(|_| (Evicted::Corrupt, "object did not parse"))?;
        if obj.digest != digest || obj.checksum != sha256_hex(obj.payload.as_bytes()) {
            return Err((Evicted::Corrupt, "payload checksum mismatch"));
        }
        Ok(obj)
    }

    /// Path of the index file, which each put rewrites and nothing reads.
    pub fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    /// What opening and serving from this store repaired.
    pub fn report(&self) -> &StoreReport {
        &self.report
    }

    /// The report as `STORE-*` diagnostics.
    pub fn diagnostics(&self) -> Vec<pas2p_check::Diagnostic> {
        self.report.diagnostics()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.entries.is_empty()
    }

    /// Index metadata of a key's entry, if present. Does not touch the
    /// object file and records no hit/miss.
    pub fn entry(&self, key: &StoreKey) -> Option<&IndexEntry> {
        self.index.entries.get(&key.digest)
    }

    /// Resolve a signature alias (see [`signature_alias`]) to its key.
    pub fn lookup_alias(&self, alias: &str) -> Option<StoreKey> {
        let digest = self.index.aliases.get(alias)?;
        let entry = self.index.entries.get(digest)?;
        Some(StoreKey {
            digest: digest.clone(),
            fingerprint: entry.fingerprint.clone(),
        })
    }

    /// Load a stored signature. `None` is a miss — absent, wrong kind,
    /// or evicted just now as corrupt/missing (see the report).
    pub fn get_signature(&mut self, key: &StoreKey) -> Option<(StoredSignature, Sidecar)> {
        let obj = self.load_object(key, ArtifactKind::Signature)?;
        match serde_json::from_str::<StoredSignature>(&obj.payload) {
            Ok(payload) => {
                HITS.inc();
                Some((payload, obj.sidecar.unwrap_or_default()))
            }
            Err(e) => {
                let reason = format!("signature payload: {e}");
                self.evict_on_read(&key.digest, Evicted::Corrupt, &reason);
                None
            }
        }
    }

    /// Load a stored prediction's canonical JSON, byte-for-byte as it
    /// was put: one verified read of its object. `None` is a miss.
    pub fn get_prediction_json(&mut self, key: &StoreKey) -> Option<String> {
        let obj = self.load_object(key, ArtifactKind::Prediction)?;
        HITS.inc();
        Some(obj.payload)
    }

    /// Store a signature under `key`, registering its alias so later
    /// requests can find it by (app, workload, nprocs, base, config).
    pub fn put_signature(
        &mut self,
        key: &StoreKey,
        payload: &StoredSignature,
        sidecar: Sidecar,
    ) -> Result<(), StoreError> {
        // The names a read rebuilds, so the alias agrees with the payload.
        let signature = &payload.signature;
        let entry = IndexEntry {
            kind: ArtifactKind::Signature,
            format_version: STORE_FORMAT_VERSION,
            fingerprint: key.fingerprint.clone(),
            app: signature.app_name.clone(),
            workload: signature.workload.clone(),
            nprocs: signature.nprocs,
            base: signature.base_machine.clone(),
            target: None,
        };
        let text = serde_json::to_string(payload).map_err(|e| StoreError::Encode(e.to_string()))?;
        self.write_object(key, entry, text, Some(sidecar))
    }

    /// Store a prediction's canonical JSON under `key`. A prediction
    /// has no TFAT of its own, so its object carries no sidecar.
    pub fn put_prediction_json(
        &mut self,
        key: &StoreKey,
        entry: IndexEntry,
        canonical_json: &str,
    ) -> Result<(), StoreError> {
        self.write_object(key, entry, canonical_json.to_string(), None)
    }

    /// Evict every entry whose fingerprint differs from `fingerprint`:
    /// incremental invalidation after a config bump, for deployments
    /// that pin one config and want the disk back. (Without this call,
    /// other-config entries stay valid — the store is content-addressed
    /// and can serve several configs side by side.)
    pub fn evict_stale_configs(&mut self, fingerprint: &str) -> usize {
        let stale: Vec<String> = self
            .index
            .entries
            .iter()
            .filter(|(_, e)| e.fingerprint != fingerprint)
            .map(|(d, _)| d.clone())
            .collect();
        for digest in &stale {
            self.forget(digest, Evicted::Config, "stale config fingerprint");
        }
        stale.len()
    }

    fn object_path(&self, digest: &str) -> PathBuf {
        self.root.join("objects").join(format!("{digest}.json"))
    }

    /// Read and verify one object. Misses are counted here; hits are
    /// counted by the typed getters once the payload also parses.
    fn load_object(&mut self, key: &StoreKey, kind: ArtifactKind) -> Option<StoredObject> {
        if !self.index.entries.contains_key(&key.digest) {
            MISSES.inc();
            return None;
        }
        match self.read_object(&key.digest) {
            Ok(obj) if obj.entry.kind == kind => return Some(obj),
            Ok(_) => MISSES.inc(),
            Err((why, reason)) => self.evict_on_read(&key.digest, why, reason),
        }
        None
    }

    /// An eviction found by a read: that read is a miss.
    fn evict_on_read(&mut self, digest: &str, why: Evicted, reason: &str) {
        self.forget(digest, why, reason);
        MISSES.inc();
    }

    fn write_object(
        &mut self,
        key: &StoreKey,
        entry: IndexEntry,
        payload: String,
        sidecar: Option<Sidecar>,
    ) -> Result<(), StoreError> {
        let obj = StoredObject {
            checksum: sha256_hex(payload.as_bytes()),
            digest: key.digest.clone(),
            entry: entry.clone(),
            payload,
            sidecar,
        };
        let text = serde_json::to_string(&obj).map_err(|e| StoreError::Encode(e.to_string()))?;
        self.write_atomic(&self.object_path(&key.digest), text.as_bytes())?;
        // The alias names only what is published: registered before the
        // write, a failed put would leave it pointing at no entry, and
        // an older signature it named would be lost to its requests.
        if let Some(alias) = entry.alias() {
            self.index.aliases.insert(alias, key.digest.clone());
        }
        self.index.entries.insert(key.digest.clone(), entry);
        self.write_index()?;
        PUTS.inc();
        ENTRIES.set(self.index.entries.len() as f64);
        Ok(())
    }

    /// Write `index.json` after a put: two of a put's four fsyncs, kept
    /// only because the frozen benchmark counts them and measures the
    /// file. No open reads it, so an eviction does not rewrite it.
    fn write_index(&self) -> Result<(), StoreError> {
        let text =
            serde_json::to_string(&self.index).map_err(|e| StoreError::Encode(e.to_string()))?;
        self.write_atomic(&self.index_path(), text.as_bytes())
    }

    /// Durable atomic write: a per-write unique temp file (so two
    /// concurrent writers can never clobber each other's temp), fsynced
    /// before the rename, with the parent directory fsynced after it —
    /// an acknowledged write survives a crash at any point, and a crash
    /// mid-write leaves only a stale temp for the next open's recovery
    /// pass. Any failure removes the temp and surfaces a classified
    /// [`StoreError`]; the target is never left torn.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = temp_path_for(path);
        let cleanup_on = |context: &str, e: std::io::Error| {
            let _ = self.io.remove_file(&tmp);
            io_err(context, e)
        };
        self.io
            .write(&tmp, bytes)
            .map_err(|e| cleanup_on("writing artifact", e))?;
        self.io
            .sync_file(&tmp)
            .map_err(|e| cleanup_on("fsyncing artifact", e))?;
        self.io
            .rename(&tmp, path)
            .map_err(|e| cleanup_on("publishing artifact", e))?;
        if let Some(parent) = path.parent() {
            self.io
                .sync_dir(parent)
                .map_err(|e| io_err("fsyncing store directory", e))?;
        }
        Ok(())
    }
}

/// A per-write unique temp name next to `path`, named by who writes it:
/// `<file>.<pid>-<seq>.tmp`, `seq` process-global. Nothing reads the name
/// back; it ends in `.tmp` so startup recovery can sweep strays.
fn temp_path_for(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = format!(
        "{}.{}-{}.tmp",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("artifact"),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    );
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_names_are_unique_per_write_and_named_by_the_writer() {
        let path = Path::new("/store/objects/abcd.json");
        // No content argument: the name costs no pass over the bytes.
        let names: Vec<PathBuf> = (0..3).map(|_| temp_path_for(path)).collect();
        assert_ne!(names[0], names[1], "writes never share a temp file");
        assert_ne!(names[1], names[2]);
        assert_ne!(names[0], names[2]);
        let prefix = format!("abcd.json.{}-", std::process::id());
        for t in &names {
            assert_eq!(t.extension().and_then(|e| e.to_str()), Some("tmp"));
            assert_eq!(t.parent(), path.parent(), "temp stays in the target dir");
            let name = t.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.starts_with(&prefix), "<file>.<pid>-<seq>.tmp: {name}");
        }
    }

    #[test]
    fn concurrent_writers_leave_every_object_well_formed() {
        let root =
            std::env::temp_dir().join(format!("pas2p-store-concurrent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Many threads, each with its own store handle over the same
        // root, writing distinct keys: every published object must be
        // intact (no clobbered temp, no torn rename target). Handles are
        // opened up front because open's recovery pass sweeps *.tmp
        // files — legitimate on startup, hostile to a write in flight.
        let mut handles: Vec<SignatureStore> = (0..4)
            .map(|_| SignatureStore::open(&root).expect("open"))
            .collect();
        std::thread::scope(|scope| {
            for (t, store) in handles.iter_mut().enumerate() {
                let t = t as u8;
                scope.spawn(move || {
                    for i in 0..8u8 {
                        let key = StoreKey {
                            digest: sha256_hex(&[t, i]),
                            fingerprint: "fp".into(),
                        };
                        let entry = IndexEntry {
                            kind: ArtifactKind::Prediction,
                            format_version: STORE_FORMAT_VERSION,
                            fingerprint: "fp".into(),
                            app: format!("app-{t}"),
                            workload: "w".into(),
                            nprocs: 8,
                            base: "A".into(),
                            target: Some("B".into()),
                        };
                        store
                            .put_prediction_json(&key, entry, &format!("{{\"pet\":{t}.{i}}}"))
                            .expect("put");
                    }
                });
            }
        });
        let mut count = 0;
        for file in std::fs::read_dir(root.join("objects")).expect("objects") {
            let path = file.expect("entry").path();
            assert_ne!(
                path.extension().and_then(|e| e.to_str()),
                Some("tmp"),
                "no temp litter after clean writes: {path:?}"
            );
            let text = std::fs::read_to_string(&path).expect("object readable");
            let obj: StoredObject = serde_json::from_str(&text).expect("object well-formed");
            assert_eq!(obj.checksum, sha256_hex(obj.payload.as_bytes()));
            count += 1;
        }
        assert_eq!(count, 32, "every write published exactly one object");
        let _ = std::fs::remove_dir_all(&root);
    }

    use crate::tests::small_signature;
    use std::sync::{Arc, Mutex};

    /// Real files with every read and fsync logged by path; the fsyncs
    /// themselves are skipped.
    #[derive(Clone, Default)]
    struct CountingIo(Arc<Mutex<Vec<(&'static str, PathBuf)>>>);

    impl CountingIo {
        fn log(&self, op: &'static str, path: &Path) {
            let mut log = self.0.lock().expect("no test panics under the lock");
            log.push((op, path.to_path_buf()));
        }
        fn logged(&self, op: &str) -> Vec<PathBuf> {
            let log = self.0.lock().expect("no test panics under the lock");
            log.iter()
                .filter(|(o, _)| *o == op)
                .map(|(_, p)| p.clone())
                .collect()
        }
        fn reads(&self) -> Vec<PathBuf> {
            self.logged("read")
        }
        fn syncs(&self) -> usize {
            self.logged("sync").len()
        }
    }

    impl StoreIo for CountingIo {
        fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
            self.log("read", path);
            RealIo.read_to_string(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealIo.write(path, bytes)
        }
        fn sync_file(&self, path: &Path) -> std::io::Result<()> {
            self.log("sync", path);
            Ok(())
        }
        fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
            self.log("sync", path);
            Ok(())
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealIo.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.create_dir_all(path)
        }
        fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
            RealIo.list_dir(dir)
        }
    }

    /// A put reads nothing and fsyncs four times (the object and the
    /// index, each before its rename and its directory after it). The
    /// store keeps nothing it has read: every get of a prediction, the
    /// first after a put and every repeat, is one verified read of its
    /// object, so a file that rots between two gets fails the second.
    #[test]
    fn every_get_of_a_prediction_reads_its_object_once() {
        let root = std::env::temp_dir().join(format!("pas2p-store-reads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let io = CountingIo::default();
        let mut store = SignatureStore::open_with_io(&root, Box::new(io.clone())).expect("open");
        let key = StoreKey {
            digest: sha256_hex(b"one prediction"),
            fingerprint: "fp".into(),
        };
        let entry = IndexEntry {
            kind: ArtifactKind::Prediction,
            format_version: STORE_FORMAT_VERSION,
            fingerprint: "fp".into(),
            app: "cg".into(),
            workload: "w".into(),
            nprocs: 8,
            base: "A".into(),
            target: Some("B".into()),
        };
        let json = r#"{"app":"cg","pet":1.25}"#;
        store.put_prediction_json(&key, entry, json).expect("put");
        assert_eq!((io.reads().len(), io.syncs()), (0, 4), "a put");
        let get = |store: &mut SignatureStore| {
            let before = io.reads().len();
            let got = store.get_prediction_json(&key);
            (got, io.reads().len() - before)
        };
        for _ in 0..3 {
            assert_eq!(get(&mut store), (Some(json.to_string()), 1));
        }
        let object = root.join("objects").join(format!("{}.json", key.digest));
        let text = std::fs::read_to_string(&object).expect("object");
        std::fs::write(&object, text.replace("1.25", "9.99")).expect("tamper");
        assert_eq!(get(&mut store), (None, 1), "the rot is read and caught");
        assert_eq!(store.report().evicted_corrupt, 1);
        assert_eq!(get(&mut store), (None, 0), "evicted: no read");
        let _ = std::fs::remove_dir_all(&root);
    }

    fn prediction_entry(app: &str) -> IndexEntry {
        IndexEntry {
            kind: ArtifactKind::Prediction,
            format_version: STORE_FORMAT_VERSION,
            fingerprint: "fp".into(),
            app: app.into(),
            workload: "w".into(),
            nprocs: 1,
            base: "A".into(),
            target: Some("B".into()),
        }
    }

    fn key_of(seed: &[u8]) -> StoreKey {
        StoreKey {
            digest: sha256_hex(seed),
            fingerprint: "fp".into(),
        }
    }

    /// The objects are the index: whatever `index.json` holds — nothing,
    /// garbage, or an entry of another format version — a reopened store
    /// holds the same entries and aliases, serves the same bytes and
    /// reports clean, having read each object once and the index never.
    #[test]
    fn the_open_derives_the_index_from_the_objects_alone() {
        let root = std::env::temp_dir().join(format!("pas2p-store-derived-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = SignatureStore::open(&root).expect("open");
        let stored = small_signature();
        let (sig, pred) = (key_of(b"a signature"), key_of(b"a prediction"));
        let json = r#"{"app":"ring","pet":2.5}"#;
        store
            .put_signature(&sig, &stored, Sidecar { tfat_seconds: 0.5 })
            .expect("put");
        store
            .put_prediction_json(&pred, prediction_entry("ring"), json)
            .expect("put");
        let (entries, aliases) = (store.index.entries.clone(), store.index.aliases.clone());
        assert_eq!((entries.len(), aliases.len()), (2, 1));
        let index = store.index_path();
        drop(store);

        let written = std::fs::read_to_string(&index).expect("index");
        let current = format!(r#""format_version":{STORE_FORMAT_VERSION},"kind""#);
        let stale = written.replacen(&current, r#""format_version":0,"kind""#, 1);
        assert_ne!(stale, written, "the index names an entry's version");
        for (case, text) in [
            ("deleted", None),
            ("garbage", Some("not json at all {{{")),
            ("an entry of version 0", Some(stale.as_str())),
        ] {
            match text {
                None => std::fs::remove_file(&index).expect("delete the index"),
                Some(text) => std::fs::write(&index, text).expect("rewrite the index"),
            }
            let io = CountingIo::default();
            let mut store =
                SignatureStore::open_with_io(&root, Box::new(io.clone())).expect("reopen");
            let read = io.reads();
            assert_eq!(read.len(), 2, "{case}: each object read once: {read:?}");
            assert!(!read.contains(&index), "{case}: the index is never read");
            assert_eq!(io.syncs(), 0, "{case}: the open writes nothing");
            assert!(store.report().is_clean(), "{case}: {:?}", store.report());
            assert_eq!(store.index.entries, entries, "{case}");
            assert_eq!(store.index.aliases, aliases, "{case}");
            assert_eq!(store.get_prediction_json(&pred).as_deref(), Some(json));
            let (back, sidecar) = store.get_signature(&sig).expect("the signature serves");
            assert_eq!(back.signature, stored.signature, "{case}");
            assert_eq!(sidecar, Sidecar { tfat_seconds: 0.5 }, "{case}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Two live objects under one alias (two writers each published a
    /// traced run into one directory): a put names its own object, and a
    /// reopen names the smaller digest.
    #[test]
    fn two_objects_under_one_alias_reopen_to_the_smaller_digest() {
        let root = std::env::temp_dir().join(format!("pas2p-store-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (a, b) = (key_of(b"one run"), key_of(b"another run"));
        let (small, large) = if a.digest < b.digest { (a, b) } else { (b, a) };
        let stored = small_signature();
        let alias = signature_alias("ring", "w", 1, "A", "fp");
        let named = |store: &SignatureStore| store.lookup_alias(&alias).map(|k| k.digest);
        let mut store = SignatureStore::open(&root).expect("open");
        for key in [&small, &large] {
            store
                .put_signature(key, &stored, Sidecar::default())
                .expect("put");
        }
        assert_eq!(named(&store), Some(large.digest.clone()), "the last put");
        drop(store);

        let store = SignatureStore::open(&root).expect("reopen");
        assert_eq!(store.len(), 2, "both objects stay entries");
        assert!(store.report().is_clean(), "{:?}", store.report());
        assert_eq!(named(&store), Some(small.digest.clone()));
        let _ = std::fs::remove_dir_all(&root);
    }
}
