#!/usr/bin/env bash
# Single-writer guard for a replica slot's state record (DESIGN.md §7):
# in the non-test files of internal/serve, a slot phase or breaker state
# is assigned only inside the pure transition function next, the record
# is stored only by moveSlot, and Server.live is written only by moveSlot
# (and initialised by New). Run from the repository root.
set -euo pipefail
cd internal/serve

# writers PATTERN prints the functions whose bodies have a non-comment
# line matching PATTERN, sorted, on one line.
writers() {
  awk -v pat="$1" '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
    $0 ~ pat && $0 !~ /^[[:space:]]*\/\// { print fn }
  ' $(ls *.go | grep -v '_test\.go$') | sort -u | xargs
}

# An assignment to field F, alone or in a tuple, but no comparison.
assign() { echo "\\.$1[^=!<>]*=[^=]"; }

fail=0
check() { # what, pattern, want
  got=$(writers "$2")
  if [ "$got" != "$3" ]; then
    echo "slot_guard: $1 written in [${got}], want only [$3]"
    fail=1
  fi
}
check 'a slot phase' "$(assign phase)" 'next'
check 'a breaker state' "$(assign breaker)" 'next'
check "a slot's stored record" "$(assign state)" 'New moveSlot'
check 'Server.live' '\.live\.(Add|Store)\(' 'New moveSlot'
check 'Server.live (after New)' '\.live\.Add\(' 'moveSlot'
exit $fail
