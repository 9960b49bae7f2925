#!/usr/bin/env bash
# End-to-end smoke test of the acrd daemon + acrctl remote client:
#   malformed numeric flags exit 2 -> boot (ephemeral port) -> remote
#   verify/repair byte-identical to the offline runs -> repeated submits
#   hit the snapshot cache -> job lifecycle (status/result) -> shutdown
#   verb drains gracefully -> a second, traced daemon dies cleanly on
#   SIGTERM and leaves a valid trace file.
set -u

ACRCTL="$1"
ACRD="$2"
WORK="$(mktemp -d)"
ACRD_PID=""
cleanup() {
  [ -n "$ACRD_PID" ] && kill -9 "$ACRD_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

wait_for_port_file() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  fail "acrd did not write its port file"
}

# A malformed numeric flag is a usage error (exit 2) naming the flag: never
# an abort, and never a port silently truncated to 16 bits. `timeout` turns
# a daemon that starts anyway into a failure instead of a hang.
expect_exit() {
  local want="$1" flag="$2" value="$3"
  timeout 10 "$ACRD" "$flag" "$value" > /dev/null 2> "$WORK/usage.err"
  local got="$?"
  [ "$got" = "$want" ] || fail "acrd $flag $value: expected exit $want, got $got"
  grep -q -- "'$flag'" "$WORK/usage.err" \
    || fail "acrd $flag $value: usage error should name the flag"
}

expect_exit 2 --workers abc
expect_exit 2 --port 99999999999
expect_exit 2 --port 70000
expect_exit 2 --cache-bytes x

"$ACRCTL" export --scenario figure2-faulty --out "$WORK/faulty" \
  || fail "export"

"$ACRD" --port-file "$WORK/port" > "$WORK/acrd.log" 2>&1 &
ACRD_PID="$!"
wait_for_port_file "$WORK/port"
PORT="$(cat "$WORK/port")"

# Remote results must be byte-identical to the offline CLI, including the
# exit code (`submit --wait` forwards the job's own).
"$ACRCTL" verify "$WORK/faulty" > "$WORK/offline_verify.out"
OFFLINE_VERIFY_EXIT="$?"
"$ACRCTL" remote submit "$WORK/faulty" --command verify --wait \
  --port "$PORT" > "$WORK/remote_verify.out"
[ "$?" = "$OFFLINE_VERIFY_EXIT" ] || fail "remote verify exit code"
diff "$WORK/offline_verify.out" "$WORK/remote_verify.out" \
  || fail "remote verify bytes differ from offline"

"$ACRCTL" repair "$WORK/faulty" --seed 9 > "$WORK/offline_repair.out" \
  || fail "offline repair"
"$ACRCTL" remote submit "$WORK/faulty" --seed 9 --wait --port "$PORT" \
  > "$WORK/remote_repair.out" || fail "remote repair"
diff "$WORK/offline_repair.out" "$WORK/remote_repair.out" \
  || fail "remote repair bytes differ from offline"

# Async lifecycle: submit without --wait, then poll status and fetch the
# result explicitly.
"$ACRCTL" remote submit "$WORK/faulty" --command verify --port "$PORT" \
  > "$WORK/submit.out" || fail "async submit"
JOB_ID="$(sed -n 's/^job \([0-9]*\) queued$/\1/p' "$WORK/submit.out")"
[ -n "$JOB_ID" ] || fail "submit did not print a job id"
"$ACRCTL" remote result "$JOB_ID" --wait --port "$PORT" > /dev/null
"$ACRCTL" remote status "$JOB_ID" --port "$PORT" > "$WORK/status.out" \
  || fail "status"
grep -q "done" "$WORK/status.out" || fail "job should finish as done"

# Repeated submissions of the same directory must hit the snapshot cache.
"$ACRCTL" remote stats --port "$PORT" > "$WORK/stats.out" || fail "stats"
grep -q '"hits":[1-9]' "$WORK/stats.out" \
  || fail "repeated submits should produce cache hits"
grep -q '"service.jobs_completed"' "$WORK/stats.out" \
  || fail "stats should embed the metrics registry"
grep -q '"uptime_ms":[0-9]' "$WORK/stats.out" \
  || fail "stats should report the daemon uptime"
grep -q '"queue_by_priority"' "$WORK/stats.out" \
  || fail "stats should report per-priority queue depths"

# The shutdown verb drains gracefully: the daemon exits 0 by itself.
"$ACRCTL" remote shutdown --port "$PORT" || fail "shutdown verb"
for _ in $(seq 1 100); do
  kill -0 "$ACRD_PID" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$ACRD_PID" 2> /dev/null; then
  fail "acrd did not exit after shutdown"
fi
wait "$ACRD_PID"
[ "$?" = "0" ] || fail "acrd should exit 0 after graceful shutdown"
grep -q "drained, bye" "$WORK/acrd.log" || fail "acrd drain banner"
ACRD_PID=""

# SIGTERM is the other graceful path; it must still flush --trace-file.
"$ACRD" --port-file "$WORK/port2" --workers 1 --no-cache \
  --trace-file "$WORK/acrd2_trace.json" > "$WORK/acrd2.log" 2>&1 &
ACRD_PID="$!"
wait_for_port_file "$WORK/port2"
PORT2="$(cat "$WORK/port2")"
"$ACRCTL" remote submit "$WORK/faulty" --command verify --wait \
  --port "$PORT2" > /dev/null
[ "$?" = "1" ] || fail "no-cache verify of the faulty scenario should exit 1"
kill -TERM "$ACRD_PID"
for _ in $(seq 1 100); do
  kill -0 "$ACRD_PID" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$ACRD_PID" 2> /dev/null; then
  fail "acrd did not exit on SIGTERM"
fi
wait "$ACRD_PID"
[ "$?" = "0" ] || fail "acrd should exit 0 on SIGTERM"
ACRD_PID=""
python3 -m json.tool "$WORK/acrd2_trace.json" > /dev/null \
  || fail "trace file written on SIGTERM is not valid JSON"

echo "acrd smoke: OK"
