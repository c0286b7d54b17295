#!/usr/bin/env bash
# Single-writer, single-builder guard for a replica slot (DESIGN.md §7):
# in the non-test files of internal/serve, a slot phase or breaker state
# is assigned only inside the pure transition function next, the record
# and Server.live are written only by moveSlot, a replica is built only
# by attempt (newSlotReplica's one call), the rebuild loop runs only in
# the slot's replicaLoop, and no second rebuilder (recycle, recycleMu)
# exists. Run from the repository root.
set -euo pipefail
cd internal/serve
src=$(ls *.go | grep -v '_test\.go$')

# writers PATTERN prints the functions whose bodies have a non-comment
# line matching PATTERN, sorted, on one line; with -n, the count of
# such lines instead.
writers() {
  local count=
  if [ "$1" = -n ]; then count=1; shift; fi
  awk -v pat="$1" -v count="$count" '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
    $0 ~ pat && $0 !~ /^[[:space:]]*\/\// { n++; if (!count) print fn }
    END { if (count) print n + 0 }
  ' $src | sort -u | xargs
}

# An assignment to field F, alone or in a tuple, but no comparison.
assign() { echo "\\.$1[^=!<>]*=[^=]"; }

fail=0
check() { # what, pattern, want
  got=$(writers "$2")
  if [ "$got" != "$3" ]; then
    echo "slot_guard: $1 in [${got}], want only [$3]"
    fail=1
  fi
}
check 'a slot phase written' "$(assign phase)" 'next'
check 'a breaker state written' "$(assign breaker)" 'next'
check "a slot's stored record written" "$(assign state)" 'moveSlot'
check 'Server.live written' '\.live\.(Add|Store)\(' 'moveSlot'
check 'a replica built' '\.newSlotReplica\(' 'attempt'
check 'the rebuild loop run' '\.rebuild\(' 'replicaLoop'
if [ "$(writers -n '\.newSlotReplica\(')" != 1 ]; then
  echo "slot_guard: newSlotReplica has $(writers -n '\.newSlotReplica\(') callers, want 1"
  fail=1
fi
if grep -nE 'recycleMu|func \(s \*Server\) recycle\(' $src; then
  echo "slot_guard: a second rebuilder (recycle, recycleMu) is back"
  fail=1
fi
exit $fail
