#!/usr/bin/env bash
# Reproduction gate: runs the quick (30-run) harness and asserts the paper's
# qualitative results still hold.  Intended for CI; exits nonzero with a
# message on the first violated claim.
#
# usage: scripts/check_repro.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench"
BENCHDIFF="$BUILD_DIR/tools/benchdiff"
FASTPATH_TEST="$BUILD_DIR/tests/fastpath_test"
GOLDEN_DIR="$(cd "$(dirname "$0")/.." && pwd)/bench/golden"
fail() { echo "REPRO CHECK FAILED: $*" >&2; exit 1; }

command -v python3 >/dev/null || fail "python3 required"
[ -x "$BENCH/table4_eps_slots" ] || fail "benches not built in $BUILD_DIR"
[ -x "$BENCHDIFF" ] || fail "benchdiff not built in $BUILD_DIR"
[ -x "$FASTPATH_TEST" ] || fail "fastpath_test not built in $BUILD_DIR"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== claim 1: PET uses < half the slots of FNEB and LoF (Table 4) =="
"$BENCH/table4_eps_slots" --quick --csv \
    --json="$WORK/BENCH_table4_eps_slots.json" > "$WORK/table4.csv"
python3 - "$WORK/table4.csv" <<'EOF'
import csv, sys
with open(sys.argv[1]) as f:
    rows = [r for r in csv.reader(f) if r and not r[0].startswith('#')]
header, data = rows[0], rows[1:]
assert len(data) == 4, f"expected 4 eps rows, got {len(data)}"
for row in data:
    eps, pet, fneb, lof = row[0], float(row[1]), float(row[2]), float(row[3])
    assert pet < 0.5 * fneb, f"eps={eps}: PET {pet} !< FNEB/2 {fneb/2}"
    assert pet < 0.5 * lof, f"eps={eps}: PET {pet} !< LoF/2 {lof/2}"
    in_interval = float(row[6])
    assert in_interval >= 0.93, f"eps={eps}: PET in-interval {in_interval}"
print("ok: PET < 0.5x baselines at every eps, contract held")
EOF

echo "== claim 2: Table 3 slot arithmetic is exactly 5m =="
"$BENCH/table3_pet_slots" --quick --csv \
    --json="$WORK/BENCH_table3_pet_slots.json" > "$WORK/table3.csv"
python3 - "$WORK/table3.csv" <<'EOF'
import csv, sys
with open(sys.argv[1]) as f:
    rows = [r for r in csv.reader(f) if r and not r[0].startswith('#')]
for row in rows[1:]:
    m, analytic, measured = int(row[0]), int(row[1]), float(row[2])
    assert analytic == 5 * m and abs(measured - analytic) < 1e-6, row
print("ok: slots == 5m for every m")
EOF

echo "== claim 3: normalized sigma ~0.2 at m = 64, independent of n (Fig 4c) =="
"$BENCH/fig4_pet_rounds" --quick --csv \
    --json="$WORK/BENCH_fig4_pet_rounds.json" > "$WORK/fig4.csv"
python3 - "$WORK/fig4.csv" <<'EOF'
import sys
with open(sys.argv[1]) as f:
    text = f.read().splitlines()
# Third CSV block is Fig 4c.
blocks, cur = [], []
for line in text:
    if line.startswith('#'):
        if cur: blocks.append(cur)
        cur = []
    elif line:
        cur.append(line)
if cur: blocks.append(cur)
rows = [r.split(',') for r in blocks[2]]
m64 = next(r for r in rows[1:] if r[0] == '64')
values = [float(x) for x in m64[1:]]
for v in values:
    assert 0.12 <= v <= 0.28, f"Fig4c at m=64: {v} outside [0.12, 0.28]"
spread = max(values) - min(values)
assert spread < 0.08, f"Fig4c at m=64 varies with n by {spread}"
print("ok: normalized sigma at m=64 =", [round(v, 3) for v in values])
EOF

echo "== claim 4: PET tag memory flat at 32 bits; baselines 10^3..10^5 (Fig 7) =="
"$BENCH/fig7_memory" --csv --json="$WORK/BENCH_fig7_memory.json" > "$WORK/fig7.csv"
python3 - "$WORK/fig7.csv" <<'EOF'
import csv, sys
with open(sys.argv[1]) as f:
    rows = [r for r in csv.reader(f) if r and not r[0].startswith('#')]
for row in rows:
    if row[0] in ('eps', 'delta'):
        continue
    pet, fneb, lof = int(row[1]), int(row[2]), int(row[3])
    assert pet == 32, f"PET memory {pet} != 32"
    assert 1000 <= fneb <= 100000 and 1000 <= lof <= 100000, row
print("ok: PET 32 bits everywhere; baselines in the paper's band")
EOF

echo "== claim 5: BENCH artifacts match the checked-in goldens (no silent drift) =="
for target in table3_pet_slots table4_eps_slots fig4_pet_rounds fig7_memory; do
    "$BENCHDIFF" "$GOLDEN_DIR/BENCH_$target.json" "$WORK/BENCH_$target.json" \
        || fail "$target drifted from bench/golden (regenerate deliberately if intended)"
done
echo "ok: all four artifacts within tolerance of bench/golden/"

echo "== claim 6: oracle rounds + arenas are bit-identical to the per-probe reference =="
# tests/fastpath_test.cpp pins SortedPetChannel to two references that share
# none of its code: every round depth and every probe's responder count
# against codes hashed one id at a time (empty buckets included), and whole
# estimates against ExactChannel.  It then replays the table3 --quick grid
# (n = 50000, H = 32, m = 8..1024, 30 runs, bench::run_pet's seeds) through
# arena channels and oracle rounds, and through a fresh channel per trial
# answering real probes; every EstimateResult, ledger airtime included, must
# agree exactly.  The rest of the suite covers robust voting, the arenas and
# the hash and sort kernels (docs/performance.md).
"$FASTPATH_TEST" > "$WORK/fastpath_test.log" 2>&1 \
    || { cat "$WORK/fastpath_test.log" >&2;
         fail "oracle rounds diverge from the per-probe reference (see docs/performance.md)"; }
echo "ok: oracle rounds + arenas reproduce the per-probe reference bit for bit"

echo "== claim 7: robustness tables match the checked-in golden =="
# The robustness sweep (iid loss / false-busy noise / burst fading) is the
# evidence behind docs/robustness.md; its artifact is golden-gated like the
# paper tables so estimator or fault-model drift cannot land silently.
"$BENCH/robustness_bench" --quick --csv --quiet \
    --json="$WORK/BENCH_robustness_bench.json" > /dev/null
"$BENCHDIFF" "$GOLDEN_DIR/BENCH_robustness_bench.json" \
    "$WORK/BENCH_robustness_bench.json" \
    || fail "robustness_bench drifted from bench/golden (regenerate deliberately if intended)"
echo "ok: robustness artifact within tolerance of bench/golden/"

echo "== claim 8: the (eps, delta) contract survives the measured Gen2 MAC =="
# PET/FNEB/LoF over gen2::Gen2PrefixChannel (Select+Query on the real EPC
# C1G2 MAC): the artifacts are golden-gated, and the capture-invariance /
# noise-sensitivity physics of docs/gen2.md must hold qualitatively —
# capture rows identical to clean, false-busy noise degrading accuracy.
"$BENCH/latency_gen2" --quick --csv --quiet \
    --json="$WORK/BENCH_latency_gen2.json" > /dev/null
"$BENCHDIFF" "$GOLDEN_DIR/BENCH_latency_gen2.json" \
    "$WORK/BENCH_latency_gen2.json" \
    || fail "latency_gen2 drifted from bench/golden (regenerate deliberately if intended)"
"$BENCH/gen2_contract_bench" --quick --csv --quiet \
    --json="$WORK/BENCH_gen2_contract_bench.json" > "$WORK/gen2_contract.csv"
"$BENCHDIFF" "$GOLDEN_DIR/BENCH_gen2_contract_bench.json" \
    "$WORK/BENCH_gen2_contract_bench.json" \
    || fail "gen2_contract_bench drifted from bench/golden (regenerate deliberately if intended)"
python3 - "$WORK/gen2_contract.csv" <<'EOF'
import csv, sys
with open(sys.argv[1]) as f:
    rows = [r for r in csv.reader(f) if r and not r[0].startswith('#')]
header, data = rows[0], rows[1:]
cells = {(r[0], r[1]): r for r in data}
for proto in ("PET", "FNEB", "LoF"):
    # Capture only re-decodes collisions; estimation probes sense busy vs
    # idle, so the capture rows must equal the clean rows column for column.
    assert cells[("capture 0.6", proto)][2:] == cells[("clean", proto)][2:], \
        f"{proto}: capture perturbed the estimate"
    assert cells[("capture+loss", proto)][2:] == cells[("loss 3%", proto)][2:], \
        f"{proto}: capture masked (or added to) the loss bias"
clean_pet, noisy_pet = cells[("clean", "PET")], cells[("noise 1%", "PET")]
assert float(clean_pet[3]) >= 0.90, f"clean PET in-eps {clean_pet[3]}"
assert float(noisy_pet[3]) < float(clean_pet[3]), \
    "false-busy noise failed to degrade the PET contract"
print("ok: capture invariant, noise degrading, artifacts match golden")
EOF

echo "== claim 9: SIMD batch hashing is bit-identical to scalar dispatch =="
# Same build, same seeds, PET_SIMD=off pinning the scalar fallback; the
# rows must agree exactly (rtol 0) with claim 2's default-dispatch artifact,
# so the gate covers the production pipeline end to end: batch hash ->
# radix sort -> oracle rounds (docs/performance.md).
PET_SIMD=off "$BENCH/table3_pet_slots" --quick --quiet \
    --json="$WORK/BENCH_t3_simd_off.json" > /dev/null
"$BENCHDIFF" "$WORK/BENCH_table3_pet_slots.json" \
    "$WORK/BENCH_t3_simd_off.json" --rtol=0 --atol=0 \
    || fail "SIMD on/off artifacts diverge (see docs/performance.md)"
echo "ok: SIMD dispatch reproduces the scalar sweep bit for bit"

echo
echo "ALL REPRODUCTION CLAIMS HOLD"
