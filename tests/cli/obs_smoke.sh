#!/usr/bin/env bash
# End-to-end smoke test of the observability subsystem (docs/observability.md):
#   repair --trace-json/--record -> trace is valid Chrome JSON with the
#   expected spans -> recording validates against the checked-in schema ->
#   explain renders -> explain --replay reproduces the recording
#   byte-identically (twice), rejects a doctored one and tolerates
#   option keys this build no longer reads -> traced acrd run exports a
#   trace -> no open-span warnings anywhere.
set -u

ACRCTL="$1"
ACRD="$2"
SRC_DIR="$3"   # repo root: scripts/check_recording.py + docs/ schema
WORK="$(mktemp -d)"
ACRD_PID=""
cleanup() {
  [ -n "$ACRD_PID" ] && kill -9 "$ACRD_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

"$ACRCTL" export --scenario figure2-faulty --out "$WORK/faulty" \
  || fail "export"

# --- traced, recorded repair ---------------------------------------------
# --brute-force --top-k 8 widens FIX to the catch-all prefix list so the
# run exercises the SMT solver (the Figure-2 narrow-override-list path).
"$ACRCTL" repair "$WORK/faulty" --brute-force --top-k 8 \
  --trace-json --obs-out "$WORK/trace.json" --record "$WORK/rec.jsonl" \
  > "$WORK/repair.out" 2> "$WORK/repair.err" || fail "traced repair"
grep -q "repaired:" "$WORK/repair.out" || fail "repair report on stdout"
grep -q "traceEvents" "$WORK/repair.out" \
  && fail "trace JSON must not pollute stdout"
grep -q "still open" "$WORK/repair.err" \
  && fail "open-span warning after repair"

python3 -m json.tool "$WORK/trace.json" > /dev/null \
  || fail "trace is not valid JSON"
for span in localize sbfl.rank fixgen.propose smt.solve validate.round \
            verify.baseline sim.full; do
  grep -q "\"name\":\"$span\"" "$WORK/trace.json" \
    || fail "trace missing span $span"
done

python3 "$SRC_DIR/scripts/check_recording.py" \
  "$SRC_DIR/docs/flight_recording.schema.json" "$WORK/rec.jsonl" \
  || fail "recording does not match the schema"

# --- symbolic repair: recorded, schema-valid, explainable ------------------
"$ACRCTL" repair "$WORK/faulty" --symbolic \
  --record "$WORK/sym.jsonl" > "$WORK/sym.out" 2> /dev/null \
  || fail "symbolic repair"
grep -q "symbolic-model" "$WORK/sym.out" || fail "symbolic template in report"
grep -q '"vars":' "$WORK/sym.jsonl" || fail "recording missing smt vars"
grep -q '"model_delta":' "$WORK/sym.jsonl" \
  || fail "recording missing smt model_delta"
python3 "$SRC_DIR/scripts/check_recording.py" \
  "$SRC_DIR/docs/flight_recording.schema.json" "$WORK/sym.jsonl" \
  || fail "symbolic recording does not match the schema"
"$ACRCTL" explain "$WORK/sym.jsonl" > "$WORK/sym_explain.out" \
  || fail "explain (symbolic)"
grep -q "var " "$WORK/sym_explain.out" || fail "explain symbolic vars"
"$ACRCTL" explain "$WORK/sym.jsonl" --replay "$WORK/faulty" \
  > "$WORK/sym_replay.out" || fail "explain --replay (symbolic)"
grep -q "replay: OK" "$WORK/sym_replay.out" || fail "symbolic replay verdict"

# --- human tree exporter --------------------------------------------------
"$ACRCTL" repair "$WORK/faulty" --trace --obs-out "$WORK/tree.txt" \
  > /dev/null 2> "$WORK/tree.err" || fail "repair --trace"
grep -q "^repair" "$WORK/tree.txt" || fail "tree root span"
grep -q "  localize" "$WORK/tree.txt" || fail "tree nesting"
grep -q "still open" "$WORK/tree.err" && fail "open-span warning (--trace)"

# --- explain + deterministic replay guard ---------------------------------
"$ACRCTL" explain "$WORK/rec.jsonl" > "$WORK/explain.out" || fail "explain"
grep -q "localize (iteration 1)" "$WORK/explain.out" || fail "explain tree"
grep -q "end: repaired" "$WORK/explain.out" || fail "explain terminal"

"$ACRCTL" explain "$WORK/rec.jsonl" --replay "$WORK/faulty" \
  > "$WORK/replay1.out" || fail "explain --replay"
"$ACRCTL" explain "$WORK/rec.jsonl" --replay "$WORK/faulty" \
  > "$WORK/replay2.out" || fail "explain --replay (second run)"
grep -q "replay: OK" "$WORK/replay1.out" || fail "replay verdict"
cmp -s "$WORK/replay1.out" "$WORK/replay2.out" \
  || fail "explain output differs between two runs"

# A doctored recording must be rejected.
sed 's/"accepted":true/"accepted":false/' "$WORK/rec.jsonl" \
  > "$WORK/tampered.jsonl"
"$ACRCTL" explain "$WORK/tampered.jsonl" --replay "$WORK/faulty" \
  > /dev/null 2> "$WORK/tampered.err"
[ "$?" = "1" ] || fail "tampered recording should fail replay"
grep -q "MISMATCH" "$WORK/tampered.err" || fail "tampered replay verdict"

# A recording from a build that recorded options this build no longer
# reads still replays: the keys are reported on stderr, not a mismatch.
sed '1s/"options":{/"options":{"coverage_guided_tests":false,"multipath":false,/' \
  "$WORK/rec.jsonl" > "$WORK/old_options.jsonl"
grep -q '"coverage_guided_tests":false,"multipath":false' \
  "$WORK/old_options.jsonl" || fail "old-options recording not built"
"$ACRCTL" explain "$WORK/old_options.jsonl" --replay "$WORK/faulty" \
  > "$WORK/old_options.out" 2> "$WORK/old_options.err" \
  || fail "recording with an unread option should replay"
grep -q "replay: OK" "$WORK/old_options.out" || fail "old-options replay verdict"
grep -q "ignoring recorded option(s).*coverage_guided_tests, multipath" \
  "$WORK/old_options.err" || fail "unread options not reported on stderr"

# --- traced daemon --------------------------------------------------------
"$ACRD" --port-file "$WORK/port" --trace-file "$WORK/acrd_trace.json" \
  --workers 1 > "$WORK/acrd.log" 2> "$WORK/acrd.err" &
ACRD_PID="$!"
for _ in $(seq 1 100); do
  [ -s "$WORK/port" ] && break
  sleep 0.1
done
[ -s "$WORK/port" ] || fail "acrd did not write its port file"
PORT="$(cat "$WORK/port")"

"$ACRCTL" remote submit "$WORK/faulty" --command verify --wait \
  --port "$PORT" > /dev/null
"$ACRCTL" remote shutdown --port "$PORT" || fail "shutdown"
wait "$ACRD_PID"
[ "$?" = "0" ] || fail "acrd exit code"
ACRD_PID=""

python3 -m json.tool "$WORK/acrd_trace.json" > /dev/null \
  || fail "acrd trace is not valid JSON"
grep -q '"name":"service.request"' "$WORK/acrd_trace.json" \
  || fail "acrd trace missing request span"
grep -q '"name":"service.job"' "$WORK/acrd_trace.json" \
  || fail "acrd trace missing job lifecycle span"
grep -q "still open" "$WORK/acrd.err" && fail "acrd open-span warning"

echo "obs smoke: OK"
