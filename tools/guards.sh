#!/usr/bin/env bash
# Structural guards: properties of the source tree that no test can
# hold, each a few lines of awk or grep. CI runs this file; so can a
# session, from anywhere in the repository:
#   tools/guards.sh
# Every guard runs; each finding is printed as file:line; exit 1 when
# any guard found something. Comment lines and the #[cfg(test)] tail of
# a Rust file are exempt where a guard says so.
set -uo pipefail
cd "$(git rev-parse --show-toplevel)"
failed=0
guard() { # guard NAME FUNCTION
  if ! "$2"; then echo "guard failed: $1"; failed=1; fi
}

# Every wait in crates/mpisim/src parks through park.rs; a timed wait,
# a sleep or a spin outside the #[cfg(test)] tail of a file is a
# regression. The one wait before the condvar is a bounded count of
# yields (`PARK_YIELDS`). Spinning there instead was slower than not
# waiting at all: over the 22 catalog runs on 2 vCPUs, 174-203 ms at
# 200 spins and 479-667 ms at 2 000, against 80-100 ms yielding 8
# times and 147-172 ms sleeping at once (EXPERIMENTS.md, the sweep).
no_wall_clock_waits_in_the_simulator() {
  bad=0
  for f in crates/mpisim/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ { exit }
         /Duration::from_millis|recv_timeout|thread::sleep|spin_loop/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         END { exit bad }' "$f" || bad=1
  done
  return $bad
}

# phases, model and check start no thread, and in core only the server
# does (one per connection): the fan-outs of check and of the batch
# driver are calls into pas2p_obs::farm, and a deadline is a clock
# reading in the cancel token, not a runner thread with a channel back.
# A thread started anywhere else in those crates, or a channel in core,
# is a regression.
one_worker_pool() {
  bad=0
  for f in crates/phases/src/*.rs crates/model/src/*.rs crates/check/src/*.rs \
           $(find crates/core/src -name '*.rs' ! -name server.rs); do
    awk '/#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /thread::scope|thread::spawn/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         END { exit bad }' "$f" || bad=1
  done
  # The check engine, the ordering and phase extraction run on the
  # calling thread: they do not call the farm either.
  for f in crates/phases/src/*.rs crates/model/src/*.rs crates/check/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /farm::/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         END { exit bad }' "$f" || bad=1
  done
  for f in $(find crates/core/src -name '*.rs'); do
    awk '/#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /mpsc::|recv_timeout/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         END { exit bad }' "$f" || bad=1
  done
  # One closure runs beside the calling thread, once: the content key
  # of a cold submit, hashed while Stage A runs (a second partner, such
  # as construct, shares the cores with its own simulated ranks).
  besides=$(for f in $(find src crates/*/src -name '*.rs'); do
              awk '/#\[cfg\(test\)\]/ { exit }
                   /^[[:space:]]*\/\// { next }
                   /farm::beside/ { print FILENAME ":" FNR ": " $0 }' "$f"
            done)
  if [ "$(printf '%s' "$besides" | grep -c .)" -ne 1 ] ||
     ! grep -q '^crates/core/src/service.rs:' <<<"$besides"; then
    echo "farm::beside calls outside tests, expected 1 in crates/core/src/service.rs:"
    echo "$besides"; bad=1
  fi
  # The server owns connections, not work: a request runs on the
  # thread that read it, so outside its test tail server.rs has
  # no channel, no polled listener, and starts exactly one kind
  # of thread (the connection's).
  awk '/#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*\/\// { next }
       /sync_channel|mpsc::|set_nonblocking/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       /thread::spawn/ { spawns++ }
       END { if (spawns != 1) { print FILENAME ": " spawns+0 " thread::spawn, expected 1"; bad = 1 }
             exit bad }' crates/core/src/server.rs || bad=1
  return $bad
}

# A collective is one call: the Mpi trait (crates/mpisim/src/lib.rs)
# provides the eight `_in` collectives over `collective_in`, the one
# method a layer implements (RankCtx runs a round, Traced records it).
# A `fn barrier_in` ... `fn scatter_in` anywhere else is a second place
# where a collective is packed, unpacked or recorded.
one_collective_seam() {
  ! git grep -nE 'fn (barrier|bcast|reduce_f64|allreduce_f64|allgather|alltoall|gather|scatter)_in[(<]' \
    -- '*.rs' ':!crates/mpisim/src/lib.rs'
}

# A measurement lives in benchmark/ or reproduces a paper artefact in
# crates/bench; nothing else times code. The patterns are bracketed so
# that a guard never finds itself.
one_measurement_system() {
  bad=0
  if git grep -n 'crit[e]rion' -- 'Cargo.toml' '*/Cargo.toml'; then bad=1; fi
  if git grep -nE 'bench[r]ec|bench[-]report' -- src crates .github; then bad=1; fi
  return $bad
}

# index.json and objects/*.json are written and read by the derives of
# StoreIndex, StoredObject, IndexEntry and Sidecar, fields in written
# order (DESIGN.md, "Signature repository"). A `*_to_value(` /
# `*_from_value(` function or a `json!` outside the #[cfg(test)] tail
# of a store file is a second spelling of the format that must then
# agree with the first.
a_store_file_is_a_struct() {
  bad=0
  for f in crates/store/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /_to_value\(|_from_value\(|json!/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         END { exit bad }' "$f" || bad=1
  done
  return $bad
}

# One build world: every external crate of [workspace.dependencies] is
# a path into benchmark/standins (no version, no registry), so tests,
# CI and the benchmark build the same packages offline with no flag;
# and no manifest outside benchmark/ declares one of the three crates
# that went (DESIGN.md, "Dependency justification").
every_dependency_is_in_the_tree() {
  bad=0
  awk '/^\[/ { deps = ($0 == "[workspace.dependencies]"); next }
       deps && /^[A-Za-z0-9_-]+ *=/ {
         ours = ($1 ~ /^pas2p(-|$)/) && /path = "crates\//
         standin = /path = "benchmark\/standins\/[a-z_]+"/
         if (!(ours || standin) || /version *=/) { print FILENAME ":" FNR ": " $0; bad = 1 }
       }
       END { exit bad }' Cargo.toml || bad=1
  if git grep -nE '^(crossbeam[a-z-]*|proptest|bytes) *[=.]' -- '*.toml' ':!benchmark'; then bad=1; fi
  return $bad
}

# A dependency names its need: every [dependencies] / [dev-dependencies]
# entry of every manifest occurs as an identifier in that package's
# src, tests, benches or examples.
every_declared_dependency_is_used() {
  bad=0
  for manifest in $(git ls-files 'Cargo.toml' 'crates/*/Cargo.toml'); do
    dir=$(dirname "$manifest")
    dirs=()
    for d in src tests benches examples; do
      if [ -d "$dir/$d" ]; then dirs+=("$dir/$d"); fi
    done
    for name in $(awk '/^\[/ { deps = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
                       deps && /^[A-Za-z0-9_-]+ *=/ { print $1 }' "$manifest"); do
      if ! grep -rqE "(^|[^A-Za-z0-9_])${name//-/_}([^A-Za-z0-9_]|\$)" --include='*.rs' "${dirs[@]}"; then
        echo "$manifest: $name is declared and never named"
        bad=1
      fi
    done
  done
  return $bad
}

# A signature enters the store one way: `ensure_signature`, which a
# submit runs once and a batch once per missing app. A second
# `put_signature(` call in crates/core/src, or service.rs going through
# the batch driver again, is a second path that the single-flight set
# does not see.
one_way_into_the_store() {
  bad=0
  puts=$(for f in $(find crates/core/src -name '*.rs'); do
           awk '/#\[cfg\(test\)\]/ { exit }
                /^[[:space:]]*\/\// { next }
                /put_signature\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
         done)
  if [ "$(printf '%s' "$puts" | grep -c .)" -ne 1 ]; then
    echo "put_signature( call sites in crates/core/src, expected 1:"; echo "$puts"; bad=1
  fi
  awk '/#\[cfg\(test\)\]/ { exit }
       /run_batch_with|BatchJob/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       END { exit bad }' crates/core/src/service.rs || bad=1
  return $bad
}

# A stored prediction becomes a Value in one place, `Reply::new` in
# crates/core/src/replies.rs, which renders the predict response once: a
# warm hit replays that reply and `batch` reads its Value. A second
# parse of a prediction payload in crates/core/src is a second render
# path, whose bytes must then agree with the first.
one_reply_render() {
  sites=$(for f in $(find crates/core/src -name '*.rs'); do
            awk '/#\[cfg\(test\)\]/ { exit }
                 /^[[:space:]]*\/\// { next }
                 /from_str.*prediction_json/ { print FILENAME ":" FNR ": " $0 }' "$f"
          done)
  if [ "$(printf '%s' "$sites" | grep -c .)" -ne 1 ]; then
    echo "parses of a stored prediction in crates/core/src, expected 1:"; echo "$sites"; return 1
  fi
}

# A stage is its own cancellation boundary: entering a
# pas2p_obs::stage is the checkpoint, and its gap histogram carries the
# stage's name. A stage enum, a separate `enter(` or a bare
# `checkpoint()` outside the #[cfg(test)] tail of a file in
# crates/core/src is a second list of stage boundaries that can drift
# from the stage profiles.
a_stage_is_its_own_boundary() {
  bad=0
  for f in $(find crates/core/src -name '*.rs'); do
    awk '/#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /cancel::Stage|(^|[^A-Za-z0-9_])enter\(|(^|[^A-Za-z0-9_])checkpoint\(\)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         END { exit bad }' "$f" || bad=1
  done
  return $bad
}

# A metric carries its own gate: an instrument is a named static
# (`static PARKS: Counter = Counter::new("mpisim.parks")`) whose record
# asks `pas2p_obs::enabled()` itself. Outside crates/obs, non-test code
# looks no instrument up by name, caches no handle in a OnceLock, and
# asks the gate itself only where the work is not a record: the park's
# clock read (crates/mpisim/src/park.rs, once) and the two snapshots
# of crates/core/src/pipeline.rs.
one_metric_gate() {
  bad=0
  for f in $(find src crates/*/src -name '*.rs' ! -path 'crates/obs/*'); do
    awk -v f="$f" '
      /#\[cfg\(test\)\]/ { exit }
      /^[[:space:]]*\/\// { next }
      /pas2p_obs::(counter|gauge|histogram)\(|OnceLock<.*(Counter|Gauge|Histogram)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
      /pas2p_obs::enabled\(\)/ { gates++; line[gates] = FILENAME ":" FNR ": " $0 }
      END {
        allowed = (f == "crates/mpisim/src/park.rs") ? 1 : (f == "crates/core/src/pipeline.rs") ? 2 : 0
        if (gates + 0 != allowed) {
          for (i = 1; i <= gates; i++) print line[i]
          print f ": " gates + 0 " pas2p_obs::enabled() calls, expected " allowed; bad = 1
        }
        exit bad
      }' "$f" || bad=1
  done
  return $bad
}

guard "no wall-clock waits in the simulator" no_wall_clock_waits_in_the_simulator
guard "one worker pool (threads, lanes and worker-exit flushes live in the farm)" one_worker_pool
guard "one collective seam (the eight _in collectives are provided by the Mpi trait only)" one_collective_seam
guard "one measurement system (no second harness, no Criterion)" one_measurement_system
guard "a store file is a struct (no hand-spelled codec beside the derives)" a_store_file_is_a_struct
guard "one way into the store (one put_signature call; service.rs does not name the batch driver)" one_way_into_the_store
guard "one reply render (a stored prediction is parsed into a Value at one site in crates/core/src)" one_reply_render
guard "a stage is its own cancellation boundary (no stage enum, enter( or bare checkpoint() in crates/core/src)" a_stage_is_its_own_boundary
guard "one metric gate (instruments are statics that gate themselves; enabled() only for the park clock and the pipeline snapshots)" one_metric_gate
guard "every dependency is in the tree (five stand-ins by path, three crates gone)" every_dependency_is_in_the_tree
guard "every declared dependency is used" every_declared_dependency_is_used
exit $failed
