//! The catalog session, pinned: every response line of one protocol
//! session over the whole catalog must equal
//! `tests/golden/catalog_session.ndjson`, over the stdin loop and over
//! the unix socket alike. The session submits the 22 catalog tuples on
//! base A, predicts each on B and C three times — cold, then the first
//! warm read (the object file is read back), then the warm reads that
//! follow it — and shuts down: 155 lines. A change to how a reply is
//! stored, cached or rendered must leave every byte of it alone.

use pas2p::{serve_unix_with, Pas2p, PredictionService, ServeOptions};
use pas2p_apps::CATALOG;
use pas2p_store::SignatureStore;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/catalog_session.ndjson"
);

/// The session's request lines, in order.
fn session() -> Vec<String> {
    let tuples = || CATALOG.iter().flat_map(|app| [4u32, 8].map(|n| (*app, n)));
    let mut lines: Vec<String> = tuples()
        .map(|(app, n)| format!(r#"{{"op":"submit","app":"{app}","nprocs":{n},"base":"A"}}"#))
        .collect();
    let predicts: Vec<String> = tuples()
        .flat_map(|(app, n)| {
            ["B", "C"].map(|target| {
                format!(
                    r#"{{"op":"predict","app":"{app}","nprocs":{n},"base":"A","target":"{target}"}}"#
                )
            })
        })
        .collect();
    for _ in 0..3 {
        lines.extend(predicts.iter().cloned());
    }
    lines.push(r#"{"op":"shutdown"}"#.to_string());
    lines
}

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "pas2p-catalog-session-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn service(root: &Path) -> PredictionService {
    let store = SignatureStore::open(root).expect("open store");
    PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name))
}

/// Compare a transport's transcript with the golden file; on a mismatch
/// write it to `catalog_session.<tag>.actual.ndjson` under the cargo
/// target's temp directory and name the first differing line.
fn assert_golden(tag: &str, actual: &str) {
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual == golden {
        return;
    }
    let out =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("catalog_session.{tag}.actual.ndjson"));
    std::fs::write(&out, actual).expect("write actual");
    for (n, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            a,
            g,
            "{tag}: line {} differs (full output in {})",
            n + 1,
            out.display()
        );
    }
    panic!(
        "{tag}: {} lines, golden has {} (full output in {})",
        actual.lines().count(),
        golden.lines().count(),
        out.display()
    );
}

#[test]
fn the_catalog_session_over_stdin_is_the_golden_transcript() {
    let root = fresh_root("stdin");
    let input = session().join("\n") + "\n";
    let mut out = Vec::new();
    service(&root)
        .serve(Cursor::new(input), &mut out)
        .expect("serve");
    let _ = std::fs::remove_dir_all(&root);
    assert_golden("stdin", &String::from_utf8(out).expect("UTF-8 responses"));
}

#[test]
fn the_catalog_session_over_the_socket_is_the_golden_transcript() {
    let root = fresh_root("socket");
    std::fs::create_dir_all(&root).expect("mkdir");
    let socket = root.join("pas2p.sock");
    let server = {
        let (root, socket) = (root.join("store"), socket.clone());
        std::thread::spawn(move || {
            serve_unix_with(&service(&root), &socket, ServeOptions::default())
                .expect("serve_unix_with")
        })
    };
    let mut attempts = 0;
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => break stream,
            Err(_) if attempts < 500 => {
                attempts += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("connect {}: {e}", socket.display()),
        }
    };
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut actual = String::new();
    for request in session() {
        writeln!(writer, "{request}").expect("write request");
        let before = actual.len();
        reader.read_line(&mut actual).expect("read response");
        assert!(actual.len() > before, "the server closed before {request}");
    }
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&root);
    assert_golden("socket", &actual);
}
