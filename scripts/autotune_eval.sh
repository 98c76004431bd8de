#!/usr/bin/env sh
# autotune_eval.sh — the tuner's acceptance harness: for every named
# workload mix, bench a roster of hand-tuned composite specs and the
# tuner's auto-derived spec (csdsbench -auto-spec) under identical
# budgets, then print a per-mix table of throughputs with the winner
# marked. The committed run lives in docs/autotune-evidence.md;
# regenerate it with:
#
#   go build -o csdsbench ./cmd/csdsbench
#   sh scripts/autotune_eval.sh ./csdsbench
#
# The hand-tuned roster is deliberately the specs an operator would
# reach for first: the bare leaf, two sharded widths, and a generously
# sized read cache over the wide composite. Budgets match csdsmodel
# -validate (4 threads, 2048 elements, 300ms x 2).
set -eu

BIN=${1:?usage: autotune_eval.sh /path/to/csdsbench}

mixes="paper ycsb-a ycsb-b ycsb-c ycsb-d ycsb-e ycsb-f flash diurnal drift"
hand_specs="list/lazy sharded(8,list/lazy) sharded(32,list/lazy) readcache(1024,sharded(32,list/lazy))"

# cell <mix> [extra flags...] -> csdsbench's text report of one cell
cell() {
    wl=$1
    shift
    "$BIN" -workload "$wl" -threads 4 -size 2048 -dur 300ms -runs 2 "$@"
}

# field <label> <report> -> second word of the report line starting with
# <label> (the same way chaos_smoke.sh reads "fault hit frac")
field() {
    printf '%s\n' "$2" | awk -v label="$1" '$1 == label { print $2 }'
}

echo "auto-tuned vs hand-tuned, per named workload (Mops, higher is better)"
echo "budgets: -threads 4 -size 2048 -dur 300ms -runs 2"
echo
for mix in $mixes; do
    best_spec=""
    best=0
    echo "$mix:"
    for spec in $hand_specs; do
        m=$(field throughput "$(cell "$mix" -alg "$spec")")
        echo "  hand  $spec: $m"
        if awk "BEGIN{exit !($m > $best)}"; then
            best=$m
            best_spec=$spec
        fi
    done
    report=$(cell "$mix" -auto-spec -alg list/lazy)
    auto_spec=$(field algorithm "$report")
    m=$(field throughput "$report")
    echo "  auto  $auto_spec: $m"
    # When the tuner derives the very spec that won the hand roster, the
    # two numbers are two samples of one configuration — identity, not a
    # race. Otherwise allow 5% measurement noise before calling a loss.
    if [ "$auto_spec" = "$best_spec" ]; then
        verdict="auto derived the winning hand spec itself ($best_spec)"
    elif awk "BEGIN{exit !($m >= $best * 0.95)}"; then
        verdict="auto matches or beats hand-tuned (best hand: $best_spec at $best)"
    else
        verdict="HAND-TUNED WINS: $best_spec at $best vs auto $m"
    fi
    echo "  => $verdict"
    echo
done
