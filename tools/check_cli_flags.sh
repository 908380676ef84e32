#!/bin/sh
# check_cli_flags.sh <termcheck-binary> <corpus-dir>
#
# Numeric-flag validation audit: every malformed value for --timeout,
# --jobs, --max-states, and --portfolio must be rejected with exit code 4
# and a structured diagnostic naming the flag, never silently parsed as
# zero (the old atof/atol behavior turned "--timeout 1O" into an instant
# timeout). Well-formed values must still be accepted. Unwritable
# --stats-json and --trace paths must fail the same way, before the
# analysis runs, and so must the removed --module-cache flag.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <termcheck-binary> <corpus-dir>" >&2
  exit 4
fi
BIN=$1
CORPUS=$2
PROG=$CORPUS/up_down.while
[ -x "$BIN" ] || { echo "error: $BIN is not executable" >&2; exit 4; }
[ -f "$PROG" ] || { echo "error: $PROG not found" >&2; exit 4; }

FAIL=0

# expect_reject <flag> <value>: exit must be 4 and stderr must name the flag.
expect_reject() {
  FLAG=$1
  VAL=$2
  ERR=$("$BIN" "$FLAG" "$VAL" "$PROG" 2>&1 >/dev/null)
  RC=$?
  if [ "$RC" -ne 4 ]; then
    echo "FAIL $FLAG '$VAL': exit $RC, expected 4" >&2
    FAIL=1
  elif ! printf '%s' "$ERR" | grep -q -- "$FLAG"; then
    echo "FAIL $FLAG '$VAL': diagnostic does not name the flag: $ERR" >&2
    FAIL=1
  else
    echo "ok   reject $FLAG '$VAL'"
  fi
}

# expect_accept <flag> <value>: a valid value must not be a usage error.
expect_accept() {
  FLAG=$1
  VAL=$2
  "$BIN" --quiet "$FLAG" "$VAL" "$PROG" >/dev/null 2>&1
  RC=$?
  if [ "$RC" -ge 4 ]; then
    echo "FAIL $FLAG '$VAL': exit $RC on a valid value" >&2
    FAIL=1
  else
    echo "ok   accept $FLAG '$VAL' (exit $RC)"
  fi
}

for FLAG in --timeout --jobs --max-states --portfolio; do
  expect_reject "$FLAG" abc
  expect_reject "$FLAG" ""
  expect_reject "$FLAG" -5
  expect_reject "$FLAG" 10x
  expect_reject "$FLAG" 99999999999999999999999999
done
# Zero is valid for --timeout (no budget) and --max-states (unlimited) but
# not for the two count flags.
expect_reject --jobs 0
expect_reject --portfolio 0
# --portfolio counts roster entrants: `--help` prints the bound as
# "(1..N)", and N + 1 is a usage error rather than a silent clamp.
ROSTER=$("$BIN" --help 2>&1 | sed -n 's/.*(1\.\.\([0-9][0-9]*\)).*/\1/p')
if [ -z "$ROSTER" ]; then
  echo "FAIL --help does not print the --portfolio bound as (1..N)" >&2
  FAIL=1
  ROSTER=1
fi
expect_reject --portfolio $((ROSTER + 1))
# NaN/inf must not sneak through strtod.
expect_reject --timeout nan
expect_reject --timeout inf

expect_accept --timeout 30
expect_accept --timeout 0.5
expect_accept --max-states 0
expect_accept --max-states 100000
expect_accept --jobs 1
expect_accept --portfolio 1
expect_accept --portfolio "$ROSTER"

# --complement is enumerated, not numeric, but gets the same structured
# rejection: a typo must be exit 4 naming the flag, never a silent default.
expect_reject --complement bogus
expect_reject --complement ""
expect_accept --complement auto
expect_accept --complement modular

# The cross-run module cache was deleted: its flag is an unknown option,
# exit 4 naming the flag, never accepted and silently ignored.
CACHE_DIR=$(mktemp -d)
expect_reject --module-cache "$CACHE_DIR"
rm -rf "$CACHE_DIR"

# Output files are opened before the analysis: a path in a missing
# directory must be exit 4 naming the flag, with no verdict printed (the
# analysis never ran).
MISSING=$(mktemp -d)/missing
expect_unwritable() {
  FLAG=$1
  OUT=$("$BIN" "$FLAG" "$MISSING/out" "$PROG" 2>/dev/null)
  RC=$?
  ERR=$("$BIN" "$FLAG" "$MISSING/out" "$PROG" 2>&1 >/dev/null)
  if [ "$RC" -ne 4 ]; then
    echo "FAIL $FLAG into a missing directory: exit $RC, expected 4" >&2
    FAIL=1
  elif ! printf '%s' "$ERR" | grep -q -- "$FLAG"; then
    echo "FAIL $FLAG into a missing directory: diagnostic does not name the flag: $ERR" >&2
    FAIL=1
  elif [ -n "$OUT" ]; then
    echo "FAIL $FLAG into a missing directory: printed output: $OUT" >&2
    FAIL=1
  else
    echo "ok   reject $FLAG into a missing directory"
  fi
}
expect_unwritable --stats-json
expect_unwritable --trace
rmdir "$(dirname "$MISSING")"

# A report or trace that cannot be written is an error, not a silent
# exit 0.
if [ -w /dev/full ]; then
  "$BIN" --quiet --stats-json - "$PROG" >/dev/full 2>/dev/null
  RC=$?
  if [ "$RC" -ne 4 ]; then
    echo "FAIL --stats-json - into /dev/full: exit $RC, expected 4" >&2
    FAIL=1
  else
    echo "ok   reject --stats-json - into /dev/full"
  fi
  ERR=$("$BIN" --quiet --trace /dev/full "$PROG" 2>&1 >/dev/null)
  RC=$?
  if [ "$RC" -ne 4 ]; then
    echo "FAIL --trace /dev/full: exit $RC, expected 4" >&2
    FAIL=1
  elif ! printf '%s' "$ERR" | grep -q -- "--trace"; then
    echo "FAIL --trace /dev/full: diagnostic does not name the flag: $ERR" >&2
    FAIL=1
  else
    echo "ok   reject --trace /dev/full"
  fi
fi

exit $FAIL
