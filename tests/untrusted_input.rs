//! Seeded fuzz over the two parsers that read bytes the program did not
//! write: `Request::from_line` (a protocol line from any client) and the
//! store's file readers (`index.json`, `objects/*.json`, from a disk that
//! may have torn or rotted them). Neither may panic; a bad line is
//! answered `code:"invalid"`, a bad file is an eviction or an index
//! rebuild named in the store's report — never a wrong answer. Each test
//! tallies accepted and rejected cases per mutation class and requires
//! one class of each, so "never panics" is not vacuously true.

mod common;

use common::{cases, Gen};
use pas2p::{Pas2p, PredictionService, Request};
use pas2p_store::{SignatureStore, StoreIo, StoreKey};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Cases per test.
const CASES: u64 = 2048;
/// Seeds that once failed; both tests run them first.
const REPLAY: &[u64] = &[];

/// A filesystem in a map: the store's IO seam without a disk, so a case
/// costs microseconds and a test can hand the store any bytes.
#[derive(Clone, Default)]
struct MemIo(Arc<Mutex<BTreeMap<PathBuf, Vec<u8>>>>);

impl MemIo {
    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        self.0.lock().expect("no case panics under the lock")
    }
}

fn not_found() -> io::Error {
    io::ErrorKind::NotFound.into()
}

impl StoreIo for MemIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let bytes = self.files().get(path).cloned().ok_or_else(not_found)?;
        String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.files().insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }
    fn sync_file(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }
    fn sync_dir(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let bytes = self.files().remove(from).ok_or_else(not_found)?;
        self.write(to, &bytes)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files().remove(path).map(drop).ok_or_else(not_found)
    }
    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let files = self.files();
        Ok(files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }
}

fn service_over(io: &MemIo) -> PredictionService {
    let store = SignatureStore::open_with_io("/store", Box::new(io.clone())).expect("open");
    PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name))
}

/// Accepted and rejected cases per mutation class.
#[derive(Default)]
struct Tally(RefCell<BTreeMap<&'static str, (u32, u32)>>);

impl Tally {
    fn count(&self, class: &'static str, accepted: bool) {
        let mut classes = self.0.borrow_mut();
        let (yes, no) = classes.entry(class).or_default();
        *(if accepted { yes } else { no }) += 1;
    }

    /// Print the table; `accepts` must have accepted a case and
    /// `rejects` rejected one.
    fn report(&self, what: &str, accepts: &str, rejects: &str) {
        let classes = self.0.borrow();
        for (class, (yes, no)) in classes.iter() {
            println!("{what}: {class}: {yes} accepted, {no} rejected");
        }
        assert!(classes[accepts].0 > 0, "no '{accepts}' case was accepted");
        assert!(classes[rejects].1 > 0, "no '{rejects}' case was rejected");
    }
}

/// JSON values of every type, right and wrong for any request field.
const VALUES: [&str; 18] = [
    "null",
    "true",
    "-1",
    "0",
    "1",
    "1.5",
    "1e400",
    "4294967296",
    "18446744073709551616",
    r#""""#,
    r#""A""#,
    r#""cg""#,
    r#""ping""#,
    "[]",
    "[1]",
    r#"["cg","lu"]"#,
    "{}",
    r#"{"op":"ping"}"#,
];

/// One valid line of each op, as (key, value) pairs.
const LINES: [&[(&str, &str)]; 7] = [
    &[
        ("op", r#""submit""#),
        ("app", r#""cg""#),
        ("nprocs", "8"),
        ("base", r#""A""#),
    ],
    &[
        ("op", r#""predict""#),
        ("app", r#""lu""#),
        ("nprocs", "4"),
        ("base", r#""B""#),
        ("target", r#""C""#),
    ],
    &[
        ("op", r#""batch""#),
        ("apps", r#"["cg","moldy"]"#),
        ("nprocs", "8"),
        ("base", r#""A""#),
        ("targets", r#"["B"]"#),
        ("workers", "2"),
        ("deadline_ms", "1000"),
    ],
    &[("op", r#""ping""#)],
    &[("op", r#""health""#)],
    &[("op", r#""stats""#)],
    &[("op", r#""shutdown""#)],
];

fn object(fields: &[(&str, &str)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!(r#""{k}":{v}"#))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The mutation class none of whose cases may be accepted: a rank is an
/// OS thread, so one such line would start that many.
const ABOVE_THE_BOUND: &str = "nprocs above the bound";

/// One request line and the mutation class it came from.
fn request_line(g: &mut Gen) -> (&'static str, String) {
    let mut fields = g.pick(&LINES).to_vec();
    let at = g.range(0..fields.len() as u64) as usize;
    match g.range(0..9) {
        0 => {
            let bytes = g.vec(0..64, |g| g.range(0..256) as u8);
            ("random bytes", String::from_utf8_lossy(&bytes).into_owned())
        }
        1 => ("a bare value", g.pick(&VALUES).to_string()),
        2 => {
            let keys = ["op", "app", "nprocs", "base", "target", "apps", "x"];
            let fields = g.vec(0..5, |g| (g.pick(&keys), g.pick(&VALUES)));
            ("random fields", object(&fields))
        }
        3 => {
            fields[at].1 = g.pick(&VALUES);
            ("one field replaced", object(&fields))
        }
        4 => {
            fields.remove(at);
            ("one field dropped", object(&fields))
        }
        5 => {
            fields.insert(at, ("comment", g.pick(&VALUES)));
            ("unknown field added", object(&fields))
        }
        6 => {
            let line = object(&fields);
            let keep = g.range(0..line.len() as u64) as usize;
            ("truncated", line[..keep].to_string())
        }
        7 => {
            // Just past the service's bound of 1 024 up to past `u32::MAX`,
            // on one of the three lines that carry a count.
            let bits = g.range(0..53);
            let nprocs = (1025 + g.range(0..1 << bits)).to_string();
            let mut fields: Vec<(&str, &str)> = LINES[g.range(0..3) as usize].to_vec();
            for field in &mut fields {
                if field.0 == "nprocs" {
                    field.1 = &nprocs;
                }
            }
            (ABOVE_THE_BOUND, object(&fields))
        }
        _ => {
            let depth = g.range(1..300) as usize;
            ("deep nesting", format!(r#"{{"op":{}"#, "[".repeat(depth)))
        }
    }
}

#[test]
fn a_request_line_is_parsed_or_answered_invalid() {
    let service = service_over(&MemIo::default());
    let tally = Tally::default();
    cases(REPLAY, CASES, |g| {
        let (class, line) = request_line(g);
        match Request::from_line(&line) {
            Ok(request) => {
                let sent: serde_json::Value = serde_json::from_str(&line).expect("accepted JSON");
                assert_eq!(sent["op"].as_str(), Some(request.op()), "{class}: {line}");
                assert_ne!(class, ABOVE_THE_BOUND, "accepted: {line}");
                tally.count(class, true);
            }
            Err(_) => {
                let (response, stop) = service.handle_line(&line);
                let reply = response.render();
                assert!(!stop, "{class}: {line}");
                assert!(
                    reply.starts_with(r#"{"code":"invalid","error":"malformed request: "#)
                        && reply.ends_with(r#","ok":false,"op":"invalid"}"#),
                    "{class}: {line} -> {reply}"
                );
                serde_json::from_str::<serde_json::Value>(&reply).expect("the reply is JSON");
                tally.count(class, false);
            }
        }
    });
    tally.report("request", "unknown field added", "truncated");
    let above = tally.0.borrow()[ABOVE_THE_BOUND];
    assert!(above.0 == 0 && above.1 > 0, "above the bound: {above:?}");
}

/// The store after one `submit` and one `predict`: its three files, the
/// keys of the two objects, and the payload each must answer with.
struct Pristine {
    files: BTreeMap<PathBuf, Vec<u8>>,
    signature: (StoreKey, String),
    prediction: (StoreKey, String),
}

fn pristine() -> Pristine {
    let io = MemIo::default();
    let service = service_over(&io);
    service.submit("masterworker", 2, "A").expect("submit");
    service
        .predict("masterworker", 2, "A", "B")
        .expect("predict");
    let files = io.files().clone();
    assert_eq!(files.len(), 3, "an index and two objects");
    let object_of = |kind: &str| {
        let mut objects = files
            .iter()
            .filter(|(path, _)| !path.ends_with("index.json"));
        let found = objects.find_map(|(path, bytes)| {
            let text = std::str::from_utf8(bytes).expect("UTF-8");
            let object: serde_json::Value = serde_json::from_str(text).expect("JSON");
            let payload = object["payload"].as_str().expect("payload").to_string();
            let key = StoreKey {
                digest: path.file_stem()?.to_str()?.to_string(),
                fingerprint: service.fingerprint(),
            };
            (object["entry"]["kind"].as_str() == Some(kind)).then_some((key, payload))
        });
        found.expect("one object of each kind")
    };
    Pristine {
        signature: object_of("signature"),
        prediction: object_of("prediction"),
        files,
    }
}

/// `bytes` after one mutation, and the mutation's class.
fn mutated(g: &mut Gen, bytes: &[u8]) -> (&'static str, Vec<u8>) {
    let mut out = bytes.to_vec();
    let at = g.range(0..out.len() as u64) as usize;
    match g.range(0..5) {
        0 => {
            out[at] = g.range(0..256) as u8;
            ("one byte overwritten", out)
        }
        1 => {
            out.truncate(at);
            ("truncated", out)
        }
        2 => ("random bytes", g.vec(0..64, |g| g.range(0..256) as u8)),
        3 => {
            // Every store file is one JSON object: give it one more key.
            out.splice(
                1..1,
                format!(r#""comment":{},"#, g.pick(&VALUES)).into_bytes(),
            );
            ("unknown key added", out)
        }
        _ => {
            // Replace the value of the first key (`aliases`, `checksum`).
            let colon = out.iter().position(|&b| b == b':').expect("a key") + 1;
            let comma = colon
                + out[colon..]
                    .iter()
                    .position(|&b| b == b',')
                    .expect("a value");
            out.splice(colon..comma, g.pick(&VALUES).bytes());
            ("first value replaced", out)
        }
    }
}

#[test]
fn a_store_file_is_served_right_or_evicted_and_reported() {
    let pristine = pristine();
    let paths: Vec<&PathBuf> = pristine.files.keys().collect();
    let tally = Tally::default();
    cases(REPLAY, CASES, |g| {
        let path = g.pick(&paths);
        let (class, bytes) = mutated(g, &pristine.files[path]);
        let io = MemIo::default();
        *io.files() = pristine.files.clone();
        io.files().insert(path.clone(), bytes);

        let mut store = SignatureStore::open_with_io("/store", Box::new(io)).expect("open");
        let prediction = store.get_prediction_json(&pristine.prediction.0);
        let signature = store
            .get_signature(&pristine.signature.0)
            .map(|(signature, _)| serde_json::to_string(&signature).expect("encodes"));
        for (got, (_, want)) in [
            (&prediction, &pristine.prediction),
            (&signature, &pristine.signature),
        ] {
            assert!(
                got.as_ref().is_none_or(|got| got == want),
                "{class} of {path:?}: wrong answer"
            );
        }

        let served = prediction.is_some() && signature.is_some();
        if !served {
            let report = store.report();
            if path.ends_with("index.json") {
                assert!(!report.is_clean(), "{class} of the index: a silent miss");
            } else {
                let codes: Vec<String> = store.diagnostics().into_iter().map(|d| d.code).collect();
                assert_eq!(
                    codes,
                    ["STORE-CORRUPT-001"],
                    "{class} of {path:?}: {report:?}"
                );
            }
        }
        tally.count(class, served);
    });
    tally.report("store", "unknown key added", "truncated");
}

/// Cases of the payload fuzz: each decodes a signature, and the served
/// ones run Stage B.
const PAYLOAD_CASES: u64 = 128;

/// The object of a signature with several entries on one checkpoint (the
/// catalog's lu/4), and the store around it.
struct PristineSignature {
    files: BTreeMap<PathBuf, Vec<u8>>,
    key: StoreKey,
    object: PathBuf,
    payload: String,
}

fn pristine_signature() -> PristineSignature {
    let io = MemIo::default();
    let service = service_over(&io);
    let digest = service.submit("lu", 4, "A").expect("submit").digest;
    let object = PathBuf::from(format!("/store/objects/{digest}.json"));
    let files = io.files().clone();
    let text = std::str::from_utf8(&files[&object]).expect("UTF-8");
    let envelope: serde_json::Value = serde_json::from_str(text).expect("JSON");
    let payload = envelope["payload"].as_str().expect("payload").to_string();
    let stored: serde_json::Value = serde_json::from_str(&payload).expect("payload JSON");
    let named: Vec<&serde_json::Value> = (stored["signature"]["entries"].as_array())
        .expect("entries")
        .iter()
        .map(|e| &e["checkpoint"])
        .collect();
    assert!(
        named
            .iter()
            .any(|c| !c.is_null() && named.iter().filter(|d| d == &c).count() >= 2),
        "two entries on one checkpoint: {named:?}"
    );
    PristineSignature {
        key: StoreKey {
            digest,
            fingerprint: service.fingerprint(),
        },
        files,
        object,
        payload,
    }
}

impl PristineSignature {
    /// The store's files with the signature's payload replaced by
    /// `payload` under a checksum that matches it.
    fn with_payload(&self, payload: &str) -> MemIo {
        let io = MemIo::default();
        *io.files() = self.files.clone();
        let text = std::str::from_utf8(&self.files[&self.object]).expect("UTF-8");
        let mut envelope: serde_json::Value = serde_json::from_str(text).expect("JSON");
        envelope["payload"] = serde_json::json!(payload);
        envelope["checksum"] = serde_json::json!(pas2p_store::sha256_hex(payload.as_bytes()));
        let text = serde_json::to_string(&envelope).expect("encodes");
        io.files().insert(self.object.clone(), text.into_bytes());
        io
    }

    /// Open the rewritten store and read the signature: whether it was
    /// served; a refusal must be exactly one `STORE-CORRUPT-001`.
    fn served(&self, io: &MemIo, what: &str) -> bool {
        let mut store = SignatureStore::open_with_io("/store", Box::new(io.clone())).expect("open");
        assert!(store.report().is_clean(), "{what}: the checksum matches");
        if store.get_signature(&self.key).is_some() {
            return true;
        }
        let codes: Vec<String> = store.diagnostics().into_iter().map(|d| d.code).collect();
        assert_eq!(codes, ["STORE-CORRUPT-001"], "{what}: {:?}", store.report());
        false
    }

    /// Stage B on the served signature: the reply line of a `predict`.
    fn predict(&self, io: &MemIo) -> serde_json::Value {
        let line = r#"{"op":"predict","app":"lu","nprocs":4,"base":"A","target":"B"}"#;
        let (response, _) = service_over(io).handle_line(line);
        serde_json::from_str(&response.render()).expect("the reply is JSON")
    }
}

/// The byte ranges of every rank state (the hex inside the quotes) in a
/// signature payload.
fn state_spans(payload: &str) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    for (at, _) in payload.match_indices(r#""states":["#) {
        let mut from = at + r#""states":["#.len();
        while payload.as_bytes()[from] == b'"' {
            let end = from + 1 + payload[from + 1..].find('"').expect("a closing quote");
            spans.push(from + 1..end);
            from = end + 1 + usize::from(payload.as_bytes()[end + 1] == b',');
        }
    }
    spans
}

/// Classes whose every case must be refused by the decoder.
const NEVER_SERVED: [&str; 4] = [
    "state of odd length",
    "state byte outside [0-9a-f]",
    "state as a number array",
    "checkpoints key renamed",
];

/// A payload rewritten inside one state, checkpoint index or key, and
/// the rewrite's class.
fn rewritten(g: &mut Gen, payload: &str) -> (&'static str, String) {
    let spans = state_spans(payload);
    let state = spans[g.range(0..spans.len() as u64) as usize].clone();
    let at = g.range(state.start as u64..state.end as u64) as usize;
    let mut out = payload.to_string();
    match g.range(0..6) {
        0 => {
            out.remove(at);
            (NEVER_SERVED[0], out)
        }
        1 => {
            let byte = g.pick(&["A", "F", "G", "x", " ", "-", "\u{e9}"]);
            out.replace_range(at..at + 1, byte);
            (NEVER_SERVED[1], out)
        }
        2 => {
            out.replace_range(state.start - 1..state.end + 1, "[1,2]");
            (NEVER_SERVED[2], out)
        }
        3 => (
            NEVER_SERVED[3],
            out.replacen(r#""checkpoints":"#, r#""checkpointz":"#, 1),
        ),
        4 => {
            let marks: Vec<usize> = out
                .match_indices(r#""checkpoint":"#)
                .map(|(i, _)| i)
                .collect();
            let from = g.pick(&marks) + r#""checkpoint":"#.len();
            let end = from + out[from..].find(['}', ',']).expect("a value");
            let value = g.pick(&["0", "1", "2", "3", "null", "-1", "1.5", r#""0""#, "[]"]);
            out.replace_range(from..end, value);
            ("checkpoint index replaced", out)
        }
        _ => {
            out.truncate(g.range(0..out.len() as u64) as usize);
            ("truncated", out)
        }
    }
}

#[test]
fn a_rewritten_payload_is_decoded_or_evicted_and_stage_b_answers() {
    let pristine = pristine_signature();
    let tally = Tally::default();
    cases(REPLAY, PAYLOAD_CASES, |g| {
        let (class, payload) = rewritten(g, &pristine.payload);
        let io = pristine.with_payload(&payload);
        let served = pristine.served(&io, class);
        assert!(
            !(served && NEVER_SERVED.contains(&class)),
            "{class}: served"
        );
        if served {
            let reply = pristine.predict(&io);
            assert!(
                reply["ok"] == true || reply["code"] == "error",
                "{class}: {reply}"
            );
        }
        tally.count(class, served);
    });
    tally.report(
        "payload",
        "checkpoint index replaced",
        "state of odd length",
    );
}

#[test]
fn named_payload_rewrites_are_refused() {
    let pristine = pristine_signature();
    let payload = &pristine.payload;
    let state = state_spans(payload)[0].clone();
    let edit = |at: usize, with: &str| {
        let mut out = payload.clone();
        out.replace_range(at..at + 1, with);
        out
    };
    let stored: serde_json::Value = serde_json::from_str(payload).expect("payload JSON");
    let len = stored["signature"]["checkpoints"]
        .as_array()
        .expect("list")
        .len();
    let last_key = payload.rfind(r#","trace_events":"#).expect("the last key");
    let refused = [
        (
            "no signature key",
            payload.replacen(r#""signature":"#, r#""signaturz":"#, 1),
        ),
        ("no trace_events key", format!("{}}}", &payload[..last_key])),
        ("an odd-length state", edit(state.start, "")),
        ("an uppercase byte", edit(state.start, "A")),
        ("a non-hex byte", edit(state.start, "g")),
        (
            "no checkpoints key",
            payload.replacen(r#""checkpoints":"#, r#""checkpointz":"#, 1),
        ),
    ];
    for (what, payload) in refused {
        assert!(
            !pristine.served(&pristine.with_payload(&payload), what),
            "{what}"
        );
    }
    // An index one past the end decodes; Stage B refuses the entry.
    let past_the_end = payload.replacen(r#""checkpoint":0"#, &format!(r#""checkpoint":{len}"#), 1);
    let io = pristine.with_payload(&past_the_end);
    assert!(pristine.served(&io, "an index past the end"));
    let reply = pristine.predict(&io);
    assert_eq!(reply["code"], "error", "{reply}");
    let error = reply["error"].as_str().expect("error text");
    assert!(error.contains("names a checkpoint past the end"), "{error}");
}
