#!/usr/bin/env bash
# The break catalogue: each tools/breaks/NAME.diff is one deliberate bug,
# a minimal unified diff under a three-line header:
#   break:  what the diff breaks
#   test:   the `cargo test` arguments that select the one test that
#           must fail (package, target, test path)
#   guards: the subject of the commit whose behaviour the test holds
#           (`git log --grep` finds it)
# For each break this applies the diff with plain `git apply` in a
# detached `git worktree` of HEAD, runs the named test with `--exact` and
# prints one row:
#   break | test | killed/survived | seconds
# "killed" means the test failed, as it must. A diff that no longer
# applies reads "stale", one that no longer builds "no-build", a filter
# that selects no test "no-test"; these and "survived" make the exit
# status 1.
#   tools/breaks.sh                every break
#   tools/breaks.sh NAME...        the named ones
#   tools/breaks.sh --changed REF  every break whose diff touches a file
#                                  that differs between REF and HEAD, or
#                                  whose own diff file does
# CI runs the --changed form on a pull request, against the merge base;
# every break rebuilds its test crate in the worktree (one worktree and
# one target directory, shared by the breaks, in a temporary directory
# removed at exit), so the full catalogue runs locally.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
repo=$PWD

if [ "${1:-}" = --changed ]; then
  [ $# -eq 2 ] || { echo "usage: tools/breaks.sh --changed REF" >&2; exit 2; }
  ref=$2
  changed=$(git diff --name-only "$ref" HEAD)
  set --
  for f in tools/breaks/*.diff; do
    for path in "$f" $(sed -n 's|^+++ b/||p' "$f"); do
      if grep -qxF "$path" <<<"$changed"; then
        set -- "$@" "$(basename "$f" .diff)"
        break
      fi
    done
  done
  if [ $# -eq 0 ]; then echo "no break touches a file changed since $ref"; exit 0; fi
elif [ $# -eq 0 ]; then
  set -- $(for f in tools/breaks/*.diff; do basename "$f" .diff; done)
fi

tmp=$(mktemp -d)
tree=$tmp/tree
cleanup() {
  git -C "$repo" worktree remove --force "$tree" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" HEAD
export CARGO_TARGET_DIR=$tmp/target

status=0
echo "break | test | result | seconds"
for name in "$@"; do
  diff=$repo/tools/breaks/$name.diff
  args=$(sed -n 's/^test: *//p' "$diff")
  git -C "$tree" checkout --quiet -- . && git -C "$tree" clean -fdq
  SECONDS=0
  if ! git -C "$tree" apply "$diff"; then
    result=stale
  elif ! (cd "$tree" && cargo test -q $args --no-run) >/dev/null 2>&1; then
    result=no-build
  elif out=$(cd "$tree" && cargo test -q $args -- --exact 2>&1); then
    # Passed: either the break survived or the filter matched nothing.
    ran=$(awk '/^test result:/ { for (i = 1; i < NF; i++) if ($(i + 1) ~ /^passed/) n += $i } END { print n + 0 }' <<<"$out")
    if [ "$ran" -eq 0 ]; then result=no-test; else result=survived; fi
  else
    result=killed
  fi
  [ "$result" = killed ] || status=1
  echo "$name | ${args##* } | $result | $SECONDS"
done
exit $status
