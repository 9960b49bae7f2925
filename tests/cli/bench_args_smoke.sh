#!/usr/bin/env bash
# Argument checks of the timed benches: a malformed or non-positive --reps
# is a usage error (exit 2) naming the flag, reported before any bench body
# runs. `timeout` turns a bench that starts measuring anyway into a failure
# instead of a long run.
#
#   bash tests/cli/bench_args_smoke.sh BENCH...
set -u

fail() { echo "FAIL: $1" >&2; exit 1; }

[ "$#" -gt 0 ] || fail "usage: bench_args_smoke.sh BENCH..."
ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT

for bench in "$@"; do
  for value in 0 abc -3; do
    timeout 10 "$bench" --reps "$value" > /dev/null 2> "$ERR"
    got="$?"
    [ "$got" = 2 ] || fail "$bench --reps $value: expected exit 2, got $got"
    grep -q -- "--reps" "$ERR" \
      || fail "$bench --reps $value: usage error should name the flag"
  done
done
echo "bench args smoke: OK"
