#!/bin/sh
# check_server_e2e.sh [--isolation MODE] <termcheck-gencorpus> <termcheckd> \
#                     <termcheck-batch> <termcheck> <check_expectations.sh> \
#                     [count]
#
# The end-to-end acceptance gate for the termcheckd pipeline (DESIGN.md
# sections 14-15), over a freshly generated corpus of [count] programs
# (default 100):
#
#  1. termcheck-gencorpus emits the corpus + EXPECTATIONS.txt oracle;
#  2. termcheck-batch drives a spawned termcheckd over it (concurrent
#     admission, windowed submission) and writes a verdicts file;
#  3. the verdicts must match the oracle (batch's own --expect AND the
#     shared check_expectations.sh --verdicts comparison);
#  4. the same corpus is run one-process-per-program through the plain
#     CLI; the batch verdicts must be IDENTICAL to the per-process ones;
#  5. a rerun against a deliberately tiny admission queue must still
#     produce identical verdicts -- queue_full backpressure reorders
#     work, never drops or corrupts it;
#  6. a daemon on a Unix socket answers the --health probe, serves the
#     whole corpus with identical verdicts, and (sandboxed modes) its
#     --trace stream records worker lifecycle events;
#  7. a sandboxed rerun with --inject-crash kills the worker of every
#     Nth job with a real SIGSEGV: exactly those jobs come back as
#     FAILED_worker_* pseudo-verdicts, each named by a `failed` line on
#     stderr even under --quiet, every other verdict is unchanged, and the
#     daemon survives to drain cleanly;
#  8. removed flags are usage errors (exit 4, unknown option):
#     --module-cache for termcheckd and termcheck-batch, --workers for
#     both, termcheck-batch --jobs, and termcheckd --tcp and --heartbeat;
#     termcheck-batch --connect takes only unix:<path> (exit 4 otherwise);
#  9. a one-job sandboxed daemon run writes worker_spawn and worker_exit
#     to its --trace file, and exits 1 naming --trace when the trace
#     cannot be written (/dev/full; skipped where it is not writable);
# 10. a socket-only daemon answers one --health probe, then SIGTERM
#     drains it: it exits 0 and its socket file is gone.
#
# --isolation MODE (inprocess|sandbox|auto) is forwarded to every daemon
# phases 2-6 start; phases 7 and 9 always force sandbox.
#
# Teardown is trap-based: any exit path kills a still-running daemon and
# removes the temp dir.
set -u

ISOLATION=""
if [ "${1:-}" = "--isolation" ]; then
  [ $# -ge 2 ] || { echo "error: --isolation needs a value" >&2; exit 4; }
  ISOLATION=$2
  shift 2
fi

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  echo "usage: $0 [--isolation MODE] <gencorpus> <termcheckd> <batch>" \
       "<termcheck> <check_expectations.sh> [count]" >&2
  exit 4
fi
GENCORPUS=$1
DAEMON=$2
BATCH=$3
CLI=$4
CHECK=$5
COUNT=${6:-100}
for B in "$GENCORPUS" "$DAEMON" "$BATCH" "$CLI"; do
  [ -x "$B" ] || { echo "error: $B is not executable" >&2; exit 4; }
done
[ -f "$CHECK" ] || { echo "error: $CHECK not found" >&2; exit 4; }

ISO_ARGS=""
[ -n "$ISOLATION" ] && ISO_ARGS="--isolation $ISOLATION"

DIR=""
DAEMON_PID=""
cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill "$DAEMON_PID" 2>/dev/null
    # Grace, then the hammer: the daemon must never outlive the gate.
    for _ in 1 2 3 4 5 6 7 8 9 10; do
      kill -0 "$DAEMON_PID" 2>/dev/null || break
      sleep 0.2
    done
    kill -9 "$DAEMON_PID" 2>/dev/null
    wait "$DAEMON_PID" 2>/dev/null
  fi
  [ -n "$DIR" ] && rm -rf "$DIR"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

DIR=$(mktemp -d "${TMPDIR:-/tmp}/tc_server_e2e.XXXXXX") || exit 4

echo "== 1. generate the corpus ($COUNT programs)"
"$GENCORPUS" --out "$DIR/corpus" --count "$COUNT" --seed 42 || exit 1

echo "== 2+3. batch run through a spawned termcheckd, verdicts vs oracle"
"$BATCH" --spawn "$DAEMON" $ISO_ARGS --max-active 4 --timeout 60 --quiet \
         --verdicts "$DIR/batch.txt" --expect "$DIR/corpus/EXPECTATIONS.txt" \
         "$DIR/corpus" || { echo "FAIL batch run vs oracle" >&2; exit 1; }
sh "$CHECK" --verdicts "$DIR/batch.txt" "$DIR/corpus/EXPECTATIONS.txt" \
  > /dev/null || { echo "FAIL shared comparison path" >&2; exit 1; }

echo "== 4. per-process CLI runs must produce identical verdicts"
: > "$DIR/single.txt"
for F in "$DIR/corpus"/*.while; do
  OUT=$("$CLI" --quiet --timeout 60 "$F")
  RC=$?
  if [ "$RC" -gt 3 ]; then
    echo "FAIL $F: termcheck exited $RC" >&2
    exit 1
  fi
  NAME=${OUT%%:*}
  GOT=$(echo "${OUT#*: }" | tr -d ' ')
  echo "$NAME $GOT" >> "$DIR/single.txt"
done
sort "$DIR/single.txt" > "$DIR/single.sorted.txt"
if ! diff -u "$DIR/single.sorted.txt" "$DIR/batch.txt"; then
  echo "FAIL batch verdicts differ from per-process verdicts" >&2
  exit 1
fi

echo "== 5. tiny queue (queue-cap 2, max-active 1): backpressure rerun"
"$BATCH" --spawn "$DAEMON" $ISO_ARGS --queue-cap 2 --max-active 1 \
         --window 16 --timeout 60 --quiet --verdicts "$DIR/squeezed.txt" \
         "$DIR/corpus" || { echo "FAIL squeezed batch run" >&2; exit 1; }
if ! diff -u "$DIR/batch.txt" "$DIR/squeezed.txt"; then
  echo "FAIL backpressure rerun changed verdicts" >&2
  exit 1
fi

echo "== 6. unix-socket daemon: health probe + identical verdicts"
SOCK="$DIR/d.sock"
"$DAEMON" $ISO_ARGS --unix-socket "$SOCK" --trace "$DIR/trace.jsonl" \
  < /dev/null > "$DIR/daemon.out" 2> "$DIR/daemon.err" &
DAEMON_PID=$!
SOCK_OK=0
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && { SOCK_OK=1; break; }
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if [ "$SOCK_OK" != 1 ]; then
  echo "FAIL daemon never bound $SOCK" >&2
  cat "$DIR/daemon.err" >&2
  exit 1
fi
"$BATCH" --connect "unix:$SOCK" --health > "$DIR/health.json" \
  || { echo "FAIL health probe" >&2; exit 1; }
grep -q '"type":"health"' "$DIR/health.json" \
  || { echo "FAIL health probe: no health line" >&2; exit 1; }
grep -q '"sandbox":{' "$DIR/health.json" \
  || { echo "FAIL health probe: no sandbox counters" >&2; exit 1; }
# The batch run's closing drain takes the daemon down with it.
"$BATCH" --connect "unix:$SOCK" --timeout 60 --quiet \
         --verdicts "$DIR/socket.txt" "$DIR/corpus" \
  || { echo "FAIL socket batch run" >&2; exit 1; }
if ! diff -u "$DIR/batch.txt" "$DIR/socket.txt"; then
  echo "FAIL socket verdicts differ from pipe verdicts" >&2
  exit 1
fi
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=""
if [ "$ISOLATION" = "sandbox" ] || [ "$ISOLATION" = "auto" ] \
   || [ -z "$ISOLATION" ]; then
  # The CLI default is auto: non-deterministic corpus jobs fork workers,
  # and the trace stream must have recorded their lifecycles.
  grep -q '"event":"worker_spawn"' "$DIR/trace.jsonl" \
    || { echo "FAIL no worker_spawn events in the trace" >&2; exit 1; }
  grep -q '"event":"worker_exit"' "$DIR/trace.jsonl" \
    || { echo "FAIL no worker_exit events in the trace" >&2; exit 1; }
fi

echo "== 7. sandboxed crash injection: every 7th worker dies to SIGSEGV"
"$BATCH" --spawn "$DAEMON" --isolation sandbox --inject-crash 7 \
         --timeout 60 --quiet --verdicts "$DIR/crash.txt" "$DIR/corpus" \
  > /dev/null 2> "$DIR/crash.err"
RC=$?
if [ "$RC" != 1 ]; then
  echo "FAIL crash-injection run exited $RC (want 1: injected failures)" >&2
  exit 1
fi
INJECTED=$(( (COUNT + 6) / 7 ))
FAILED=$(grep -c ' FAILED_worker_' "$DIR/crash.txt")
if [ "$FAILED" != "$INJECTED" ]; then
  echo "FAIL $FAILED FAILED_worker_* verdicts, expected $INJECTED" >&2
  cat "$DIR/crash.txt" >&2
  exit 1
fi
# --quiet silences verdicts, not failures: one `failed <stem>: worker_...`
# line per injected crash, each naming a job the verdicts file failed.
NAMED=$(grep -c '^failed [^ ]*: worker_' "$DIR/crash.err")
if [ "$NAMED" != "$INJECTED" ]; then
  echo "FAIL $NAMED 'failed <stem>: worker_' lines on stderr, expected" \
       "$INJECTED" >&2
  cat "$DIR/crash.err" >&2
  exit 1
fi
for STEM in $(sed -n 's/^failed \([^ ]*\): worker_.*/\1/p' "$DIR/crash.err"); do
  grep -q "^$STEM FAILED_worker_" "$DIR/crash.txt" || {
    echo "FAIL stderr names $STEM, which did not fail" >&2
    exit 1
  }
done
grep -v ' FAILED_worker_' "$DIR/crash.txt" > "$DIR/crash.ok.txt"
while IFS= read -r LINE; do
  grep -qxF "$LINE" "$DIR/batch.txt" || {
    echo "FAIL crash-injection perturbed a healthy verdict: $LINE" >&2
    exit 1
  }
done < "$DIR/crash.ok.txt"

echo "== 8. removed flags are unknown options to the daemon and the client"
# Deleted flags must fail loudly as usage errors instead of being accepted
# or silently ignored: --module-cache (the cross-run module cache),
# --workers (the daemon's pool has one thread per core), the client's
# --jobs (a daemon portfolio job runs its entrants in roster order), and
# the daemon's --tcp listener and --heartbeat stats lines (the transports
# are stdio and the Unix socket). A daemon that accepted --tcp would keep
# serving after stdin EOF, so every check runs under timeout.
# expect_unknown_option FLAG COMMAND...
expect_unknown_option() {
  FLAG=$1
  shift
  ERR=$(timeout 30 "$@" < /dev/null 2>&1 >/dev/null)
  RC=$?
  if [ "$RC" != 4 ]; then
    echo "FAIL $1 $FLAG: exit $RC, expected 4" >&2
    exit 1
  fi
  case "$ERR" in
    *"unknown option '$FLAG'"*) ;;
    *) echo "FAIL $1 $FLAG: no unknown-option diagnostic: $ERR" >&2
       exit 1 ;;
  esac
}
expect_unknown_option --module-cache "$DAEMON" --module-cache "$DIR/modcache"
expect_unknown_option --module-cache "$BATCH" --spawn "$DAEMON" \
  --module-cache "$DIR/modcache" --health
expect_unknown_option --workers "$DAEMON" --workers 2
expect_unknown_option --workers "$BATCH" --spawn "$DAEMON" --workers 2 --health
expect_unknown_option --jobs "$BATCH" --spawn "$DAEMON" --jobs 2 --health
expect_unknown_option --tcp "$DAEMON" --tcp 0
expect_unknown_option --heartbeat "$DAEMON" --heartbeat 1
# The client's --connect names a Unix socket; the [host:]port form is gone.
ERR=$(timeout 30 "$BATCH" --connect 127.0.0.1:7 --health 2>&1 >/dev/null)
RC=$?
if [ "$RC" != 4 ]; then
  echo "FAIL $BATCH --connect 127.0.0.1:7: exit $RC, expected 4" >&2
  exit 1
fi
case "$ERR" in
  *"--connect"*) ;;
  *) echo "FAIL $BATCH --connect 127.0.0.1:7: diagnostic: $ERR" >&2
     exit 1 ;;
esac

echo "== 9. termcheckd --trace: a trace that cannot be written is an error"
# One sandboxed job writes worker_spawn and worker_exit events; into a
# file both arrive, and into /dev/full the daemon must exit 1 naming the
# flag instead of losing them silently.
PROG='program p(i) { while (i > 0) { i := i - 1; } }'
SUBMIT="{\"op\":\"submit\",\"id\":\"t1\",\"program\":\"$PROG\"}"
echo "$SUBMIT" | "$DAEMON" --isolation sandbox --trace "$DIR/one.jsonl" \
  > /dev/null 2>&1 || { echo "FAIL one-job traced daemon run" >&2; exit 1; }
for EV in worker_spawn worker_exit; do
  grep -q "\"event\":\"$EV\"" "$DIR/one.jsonl" \
    || { echo "FAIL one-job trace has no $EV event" >&2; exit 1; }
done
TRACE_FULL="skipped: /dev/full not writable"
if [ -w /dev/full ]; then
  ERR=$(echo "$SUBMIT" | "$DAEMON" --isolation sandbox --trace /dev/full \
        2>&1 >/dev/null)
  RC=$?
  if [ "$RC" != 1 ]; then
    echo "FAIL termcheckd --trace /dev/full: exit $RC, expected 1" >&2
    exit 1
  fi
  case "$ERR" in
    *"--trace: cannot write trace"*) ;;
    *) echo "FAIL termcheckd --trace /dev/full: diagnostic: $ERR" >&2
       exit 1 ;;
  esac
  TRACE_FULL="reported"
fi

echo "== 10. SIGTERM drains a socket-only daemon"
# The signal's drain helper and the main thread, whose stdin is at EOF,
# both stop the listeners; the stop must run once, so the daemon exits 0
# (under TSan with halt_on_error=1, a race there changes the exit code)
# and removes its socket file.
SOCK="$DIR/sig.sock"
"$DAEMON" --unix-socket "$SOCK" < /dev/null > "$DIR/sig.out" \
  2> "$DIR/sig.err" &
DAEMON_PID=$!
SOCK_OK=0
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && { SOCK_OK=1; break; }
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if [ "$SOCK_OK" != 1 ]; then
  echo "FAIL daemon never bound $SOCK" >&2
  cat "$DIR/sig.err" >&2
  exit 1
fi
"$BATCH" --connect "unix:$SOCK" --health > /dev/null \
  || { echo "FAIL health probe of the socket-only daemon" >&2; exit 1; }
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
RC=$?
DAEMON_PID=""
if [ "$RC" != 0 ]; then
  echo "FAIL SIGTERM-drained socket-only daemon exited $RC, expected 0" >&2
  cat "$DIR/sig.err" >&2
  exit 1
fi
if [ -e "$SOCK" ]; then
  echo "FAIL SIGTERM-drained daemon left its socket file behind" >&2
  exit 1
fi

echo "server e2e: $COUNT programs, batch == per-process == socket == oracle;" \
     "$INJECTED injected crashes contained; removed flags rejected;" \
     "trace write failure $TRACE_FULL; signal drain clean"
exit 0
