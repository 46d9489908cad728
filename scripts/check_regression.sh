#!/bin/sh
# Benchmark regression gate: run the deterministic micro section of the
# bench harness and diff its snapshot against the committed baseline
# (BENCH_results.json) with `sft bench-diff`.
#
# Only the gates/paths metrics are gated, at threshold 0: the micro
# circuits are generated from fixed seeds, so their sizes are exactly
# reproducible and any drift is a real behaviour change. Wall times and
# speedups are machine-dependent and deliberately not gated here — with
# a few exceptions: the `incremental` section compares the engine against
# its full re-enumeration oracle at domains 1 and 2, so its bit-identity
# flag and pop-fraction invariant must hold on any machine and are gated
# via `gate_ok` below (its `speedup >= 1` clause compares medians of five
# pass-2 times, read from the `engine.pass` trace spans); the
# `idcache` section's `gate_ok` asserts the persistent identification
# cache's determinism contract (off = cold = warm bit-identity, warm-start
# disk hits, no warm-run misses, and a warm hit rate at least the cold
# one — DESIGN.md §15); and the
# `sat_atpg` section's `escalation_ok` asserts that no PODEM-aborted
# fault stays undecided after SAT escalation (DESIGN.md §14), which is a
# determinism property, not a timing one; and the `journal` section's
# `gate_ok` asserts the decision journal's never-perturb contract
# (journaled run bit-identical to plain, funnel invariant holds, no
# dropped events — DESIGN.md §16). The journal contract is additionally
# exercised through the CLI below.
#
# Usage: scripts/check_regression.sh [BASELINE]
# Exit:  0 no regression, 1 regression, 2 incomparable snapshots.
set -eu

cd "$(dirname "$0")/.."

baseline=${1:-BENCH_results.json}
if [ ! -f "$baseline" ]; then
    echo "check_regression: baseline $baseline not found" >&2
    exit 2
fi

# The persistent identification store must never be committed: it is a
# machine-local, append-only artifact (DESIGN.md §15).
if [ -n "$(git ls-files data/cache 2>/dev/null)" ]; then
    echo "check_regression: data/cache artifacts are committed; remove them" >&2
    exit 1
fi
if ! grep -q '^data/cache/$' .gitignore 2>/dev/null; then
    echo "check_regression: .gitignore must exclude data/cache/" >&2
    exit 1
fi

dune build bin/sft_cli.exe bench/main.exe

tmp=$(mktemp -t bench-smoke.XXXXXX.json)
trap 'rm -f "$tmp"' EXIT INT TERM

echo "check_regression: bench smoke run (--quick --only micro,kernels,incremental,idcache,sat_atpg,journal)..."
dune exec --no-build bench/main.exe -- \
    --quick --only micro,kernels,incremental,idcache,sat_atpg,journal --domains 2 --json "$tmp" > /dev/null

# The gate greps allow any spacing after the colon: the snapshot rows are
# compact Obs_json objects, the older hand-written layout had a space.
#
# Incremental-resynthesis and idcache gates: the dirty-root worklist must
# reproduce the full re-enumeration oracle bit-for-bit, pop fewer roots and
# not be slower than it; the persistent identification cache must land identical
# circuits off/cold/warm, and the warm run must serve every lookup from the
# store the cold run published (disk hits, zero misses).
if grep -Eq '"identical_results": *false' "$tmp"; then
    echo "check_regression: a bit-identity section diverged (incremental, idcache or journal)" >&2
    exit 1
fi
if grep -Eq '"gate_ok": *false' "$tmp"; then
    echo "check_regression: a section gate failed (incremental pops/speedup, idcache warm-start/misses/hit-rate, or journal funnel/drops)" >&2
    exit 1
fi

# SAT ATPG gate: every PODEM-aborted fault must be settled (test found or
# redundancy proved) by the exact escalation pass.
if grep -Eq '"escalation_ok": *false' "$tmp"; then
    echo "check_regression: sat_atpg escalation left faults undecided" >&2
    exit 1
fi

# CLI journal gate (DESIGN.md §16): a journaled multi-domain optimize run
# must land the same netlist as a plain one, and `sft report` must accept
# the journal (it exits 1 on a funnel violation) with funnel_ok in its
# JSON document.
echo "check_regression: CLI journal bit-identity and report funnel..."
jdir=$(mktemp -d -t journal-gate.XXXXXX)
trap 'rm -f "$tmp"; rm -rf "$jdir"' EXIT INT TERM
dune exec --no-build bin/sft_cli.exe -- optimize test/metrics_smoke.bench \
    --domains 2 -o "$jdir/plain.bench" > /dev/null
dune exec --no-build bin/sft_cli.exe -- optimize test/metrics_smoke.bench \
    --domains 2 --journal "$jdir/run.journal" -o "$jdir/journaled.bench" > /dev/null
if ! cmp -s "$jdir/plain.bench" "$jdir/journaled.bench"; then
    echo "check_regression: --journal perturbed the optimize result" >&2
    exit 1
fi
dune exec --no-build bin/sft_cli.exe -- report "$jdir/run.journal" --json \
    > "$jdir/report.json"
if ! grep -q '"funnel_ok":true' "$jdir/report.json"; then
    echo "check_regression: journal report funnel violated (committed <= verified <= identified <= candidates)" >&2
    exit 1
fi

dune exec --no-build bin/sft_cli.exe -- bench-diff "$baseline" "$tmp" \
    --metrics gates,paths --threshold 0
