#!/usr/bin/env bash
# Argument checks of the benches: a malformed or too-small argument is a
# usage error (exit 2) whose first stderr line names it, reported before any
# bench body runs. `timeout` turns a bench that starts measuring anyway into
# a failure instead of a long run. Each bench gets the rows for the
# arguments it takes, chosen by its file name.
#
#   bash tests/cli/bench_args_smoke.sh BENCH...
set -u

fail() { echo "FAIL: $1" >&2; exit 1; }

[ "$#" -gt 0 ] || fail "usage: bench_args_smoke.sh BENCH..."
ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT

# expect_usage NAME COMMAND...: COMMAND exits 2 and names NAME.
expect_usage() {
  local name="$1"
  shift
  timeout 10 "$@" > /dev/null 2> "$ERR"
  local got="$?"
  [ "$got" = 2 ] || fail "$*: expected exit 2, got $got"
  head -n 1 "$ERR" | grep -q -- "$name" \
    || fail "$*: usage error should name $name"
}

for bench in "$@"; do
  case "$(basename "$bench")" in
    bench_candidate_batch | bench_sim_incremental | bench_symbolic)
      for value in 0 abc -3; do
        expect_usage --reps "$bench" --reps "$value"
      done
      ;;
    bench_table1 | bench_fig1 | bench_ablation_sbfl | bench_ablation_strategy \
      | bench_obs_overhead)
      for value in 0 abc -3 --help; do
        expect_usage incidents "$bench" "$value"
      done
      for value in abc -1; do
        expect_usage seed "$bench" 2 "$value"
      done
      if [ "$(basename "$bench")" = bench_obs_overhead ]; then
        for value in 0 abc -3; do
          expect_usage samples "$bench" 2 42 "$value"
        done
      fi
      ;;
    *) fail "$bench: no argument rows for this bench" ;;
  esac
done
echo "bench args smoke: OK"
