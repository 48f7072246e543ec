#!/usr/bin/env bash
# Runs the explorer with the given arguments, prints its report, and fails
# unless the run exits 0 and the report equals a checked-in golden file byte
# for byte. The explorer's reports are a deterministic function of its
# arguments, so any difference is a behaviour change in the drivers, the
# collectors or the corpus generator.
#
#   crates/bench/golden/check.sh <explore-binary> <golden-file> [explore args...]
#
# For example, from the repo root:
#
#   cargo build --release -p ggd-bench --bin explore
#   crates/bench/golden/check.sh target/release/explore \
#     crates/bench/golden/corpus30_seed7.txt --corpus 30 --seed 7
#
# After an intended change, regenerate a golden by redirecting the same
# explorer run into it, and say why the report moved.
set -u
bin=$1
golden=$2
shift 2
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$bin" "$@" > "$out"
status=$?
cat "$out"
if [ "$status" -ne 0 ]; then
  echo "explorer exited with status $status" >&2
  exit "$status"
fi
diff -u "$golden" "$out"
