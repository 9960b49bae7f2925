#!/usr/bin/env bash
# End-to-end smoke test of the acrctl workflow:
#   export (cisco dialect) -> inject -> verify (fails) -> triage ->
#   repair --report -> verify repaired (passes)
set -u

ACRCTL="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

"$ACRCTL" list-faults | grep -q "Missing peer group" \
  || fail "list-faults should include Table-1 types"

"$ACRCTL" export --scenario dcn-2x2 --out "$WORK/clean" --dialect cisco \
  || fail "export"
[ -f "$WORK/clean/topology.acr" ] || fail "topology.acr missing"
[ -f "$WORK/clean/intents.acr" ] || fail "intents.acr missing"
grep -q "router bgp" "$WORK/clean/core1.cfg" \
  || fail "cisco dialect not used in export"

"$ACRCTL" verify "$WORK/clean" || fail "pristine scenario should verify clean"

"$ACRCTL" inject "$WORK/clean" --fault 2 --seed 4 --out "$WORK/broken" \
  || fail "inject"
"$ACRCTL" verify "$WORK/broken" > "$WORK/verify.out" 2>&1 \
  && fail "broken scenario should fail verification"
grep -q "FAIL" "$WORK/verify.out" || fail "verify should print failures"

"$ACRCTL" triage "$WORK/broken" > "$WORK/triage.out" 2>&1
grep -q "top suspicious lines" "$WORK/triage.out" || fail "triage output"

"$ACRCTL" repair "$WORK/broken" --out "$WORK/repaired" --report \
  > "$WORK/repair.out" || fail "repair"
grep -q "# ACR repair report" "$WORK/repair.out" || fail "repair report"
grep -q "outcome: \*\*repaired\*\*" "$WORK/repair.out" || fail "not repaired"

"$ACRCTL" verify "$WORK/repaired" || fail "repaired scenario should verify"

"$ACRCTL" tolerance "$WORK/clean" --k 1 > "$WORK/tol.out" 2>&1
grep -q "single points of failure" "$WORK/tol.out" \
  || fail "the legacy pod should expose SPOFs"

"$ACRCTL" campaign --incidents 4 --seed 7 --jobs 2 --metrics \
  > "$WORK/campaign.out" || fail "campaign --jobs"
grep -q "worker(s)" "$WORK/campaign.out" || fail "campaign worker banner"
grep -q "campaign.incidents" "$WORK/campaign.out" \
  || fail "--metrics should dump campaign counters"
grep -q "repair.validate_ms" "$WORK/campaign.out" \
  || fail "--metrics should dump stage histograms"

# --metrics-json goes to the obs channel (stderr, or --obs-out), never to
# stdout: the report channel stays parseable on its own.
"$ACRCTL" campaign --incidents 2 --seed 7 --metrics-json \
  > "$WORK/campaign.json.out" 2> "$WORK/campaign.json.err" \
  || fail "campaign --metrics-json"
grep -q '"counters"' "$WORK/campaign.json.err" || fail "JSON metrics dump"
grep -q '"counters"' "$WORK/campaign.json.out" \
  && fail "JSON metrics must not pollute stdout"
"$ACRCTL" campaign --incidents 2 --seed 7 --metrics-json \
  --obs-out "$WORK/campaign.obs.json" > /dev/null 2>&1 \
  || fail "campaign --obs-out"
grep -q '"counters"' "$WORK/campaign.obs.json" || fail "--obs-out file dump"

# --- exit-code contract: 0 ok, 1 failed, 2 usage -------------------------

expect_exit() {
  local want="$1"; shift
  local what="$1"; shift
  "$@" > /dev/null 2>&1
  local got="$?"
  [ "$got" = "$want" ] || fail "$what: expected exit $want, got $got"
}

expect_exit 0 "verify clean"        "$ACRCTL" verify "$WORK/clean"
expect_exit 1 "verify broken"       "$ACRCTL" verify "$WORK/broken"
expect_exit 1 "triage broken"       "$ACRCTL" triage "$WORK/broken"
expect_exit 2 "unknown command"     "$ACRCTL" frobnicate
expect_exit 2 "unknown flag"        "$ACRCTL" verify "$WORK/clean" --frobnicate
expect_exit 2 "flag wrong command"  "$ACRCTL" verify "$WORK/clean" --metric ochiai
expect_exit 2 "unknown metric"      "$ACRCTL" triage "$WORK/broken" --metric bogus
expect_exit 2 "flag missing value"  "$ACRCTL" repair "$WORK/broken" --seed
expect_exit 2 "malformed seed"      "$ACRCTL" repair "$WORK/broken" --seed abc
expect_exit 2 "malformed incidents" "$ACRCTL" campaign --incidents abc
expect_exit 2 "missing args"        "$ACRCTL"
expect_exit 2 "export without out"  "$ACRCTL" export --scenario figure2
expect_exit 1 "bad scenario dir"    "$ACRCTL" verify "$WORK/does-not-exist"
expect_exit 2 "remote without port" "$ACRCTL" remote stats
expect_exit 2 "bad remote verb"     "$ACRCTL" remote frobnicate
expect_exit 1 "remote no daemon"    "$ACRCTL" remote stats --port 1
expect_exit 2 "removed fleet verb"  "$ACRCTL" fleet stats --nodes 127.0.0.1:1
expect_exit 2 "removed repair jobs" "$ACRCTL" repair "$WORK/broken" --jobs 2
expect_exit 2 "removed multipath"   "$ACRCTL" repair "$WORK/broken" --multipath
expect_exit 2 "removed submit jobs" \
  "$ACRCTL" remote submit "$WORK/broken" --port 1 --jobs 2

echo "acrctl smoke: OK"
