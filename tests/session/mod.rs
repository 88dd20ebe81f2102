//! The catalog session: the 22 catalog tuples submitted on base A, each
//! predicted on B and C three times — cold, then the first warm read
//! (the object file is read back), then the warm reads that follow
//! it — and a shutdown: 155 request lines.

use pas2p_apps::CATALOG;

/// The session's request lines, in order.
pub fn session() -> Vec<String> {
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
