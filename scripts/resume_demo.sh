#!/usr/bin/env bash
# save -> kill -> resume determinism demo for the store/ subsystem,
# registered as a ctest (crawl_cli_resume_demo).
#
# The contract being pinned: walks are deterministic given the seed, and
# persisted history changes only what a crawl is BILLED, never where it
# goes. So a crawl killed by its query budget (our stand-in for a crash —
# the process genuinely exits), resumed in a new process from the WAL it
# journaled, walks a trace bit-identical to one uninterrupted crawl given
# the combined budget — while being charged only for NEW nodes. A torn WAL
# tail (crash mid-append) must still resume cleanly.
#
# usage: resume_demo.sh <path-to-crawl_cli> [workdir]
set -u

CLI=${1:?usage: resume_demo.sh <path-to-crawl_cli> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"
EDGES="$WORKDIR/edges.txt"
WAL="$WORKDIR/history.hwwl"
SNAP="$WORKDIR/history.hwss"
BUDGET=60
SEED=3
FAILURES=0

rm -f "$WAL" "$SNAP" "$WAL.snap"

# Deterministic 500-node circulant graph (ring + distance-7 chords).
awk 'BEGIN { n = 500; for (i = 0; i < n; i++) { print i, (i + 1) % n; print i, (i + 7) % n } }' > "$EDGES"

digest() { grep 'trace digest' "$1" | awk '{print $3}'; }
charged() { grep 'charged queries' "$1" | awk '{print $3}'; }

check() { # check <label> <condition...>
  local label=$1; shift
  if "$@"; then
    echo "ok: $label"
  else
    echo "FAIL: $label"
    FAILURES=$((FAILURES + 1))
  fi
}

# Run 1: crawl until the budget kills the process, journaling to the WAL.
"$CLI" --wal="$WAL" --walker=cnrw --budget="$BUDGET" --seed="$SEED" "$EDGES" > "$WORKDIR/run1.txt" 2>&1
check "run 1 (budget-killed, journaled) exits cleanly" test $? -eq 0
check "run 1 was charged its full budget" test "$(charged "$WORKDIR/run1.txt")" = "$BUDGET"

# Run 2: NEW process resumes from the WAL with the same seed and budget,
# folding everything into a snapshot at exit.
"$CLI" --wal="$WAL" --save-history="$SNAP" --metrics-out="$WORKDIR/run2.prom" --walker=cnrw --budget="$BUDGET" --seed="$SEED" "$EDGES" > "$WORKDIR/run2.txt" 2>&1
check "run 2 (resumed) exits cleanly" test $? -eq 0
check "run 2 restored the first run's history" \
    grep -q "history restored:  0 snapshot entries + $BUDGET wal records" "$WORKDIR/run2.txt"
check "run 2 was charged only for new nodes" test "$(charged "$WORKDIR/run2.txt")" = "$BUDGET"

# Observability cross-check on run 2's scrape: the registry must attribute
# every cache miss to exactly one outcome, bill exactly the wire fetches,
# and agree with the human-readable charged-queries line.
PROM="$WORKDIR/run2.prom"
metric() { awk -v m="$1" '$1 == m {print $2}' "$PROM"; }
MISSES=$(metric hw_access_cache_misses_total)
WIRE=$(metric hw_net_wire_fetches_total)
JOINS=$(metric hw_net_singleflight_joins_total)
REFUSED=$(metric hw_access_budget_refusals_total)
ERRORS=$(metric hw_access_fetch_errors_total)
check "scrape attributes every miss to exactly one outcome" \
    test "$MISSES" -eq "$((WIRE + JOINS + REFUSED + ERRORS))"
check "scrape bills exactly the wire fetches" \
    test "$(metric hw_access_charged_queries_total)" = "$WIRE"
check "charged-queries line agrees with the scrape" \
    test "$(charged "$WORKDIR/run2.txt")" = "$(metric hw_access_charged_queries_total)"

# Reference: one uninterrupted crawl with the combined budget.
"$CLI" --walker=cnrw --budget=$((2 * BUDGET)) --seed="$SEED" "$EDGES" > "$WORKDIR/run3.txt" 2>&1
check "reference run exits cleanly" test $? -eq 0
check "resumed trace is bit-identical to the uninterrupted crawl" \
    test "$(digest "$WORKDIR/run2.txt")" = "$(digest "$WORKDIR/run3.txt")"

# Run 4: resume from the SNAPSHOT alone (the WAL was folded and reset).
"$CLI" --load-history="$SNAP" --walker=cnrw --budget="$BUDGET" --seed="$SEED" "$EDGES" > "$WORKDIR/run4.txt" 2>&1
check "run 4 (snapshot warm start) exits cleanly" test $? -eq 0
"$CLI" --walker=cnrw --budget=$((3 * BUDGET)) --seed="$SEED" "$EDGES" > "$WORKDIR/run5.txt" 2>&1
check "snapshot warm start matches an uninterrupted triple-budget crawl" \
    test "$(digest "$WORKDIR/run4.txt")" = "$(digest "$WORKDIR/run5.txt")"

# Crash tolerance: tear the WAL mid-record (as a kill -9 during an append
# would) and confirm the resume still comes up, dropping only the tail.
rm -f "$WAL" "$WAL.snap"
"$CLI" --wal="$WAL" --walker=cnrw --budget="$BUDGET" --seed="$SEED" "$EDGES" > /dev/null 2>&1
WALSIZE=$(wc -c < "$WAL")
head -c $((WALSIZE - 5)) "$WAL" > "$WAL.torn" && mv "$WAL.torn" "$WAL"
"$CLI" --wal="$WAL" --walker=cnrw --budget=5 --seed="$SEED" "$EDGES" > "$WORKDIR/run6.txt" 2>&1
check "resume over a torn wal tail exits cleanly" test $? -eq 0
check "the torn tail was detected and dropped" \
    grep -q "recovered torn wal tail" "$WORKDIR/run6.txt"
check "all but the torn record were replayed" \
    grep -q "history restored:  0 snapshot entries + $((BUDGET - 1)) wal records" "$WORKDIR/run6.txt"

if [ "$FAILURES" -ne 0 ]; then
  echo "resume_demo: $FAILURES check(s) failed (artifacts in $WORKDIR)"
  exit 1
fi
echo "resume_demo: all checks passed"
exit 0
