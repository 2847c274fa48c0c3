#!/usr/bin/env bash
# Regenerate every checked-in perf baseline from a Release build.
#
# Run this after an *intentional* performance or counting change, review the
# diff (the simulator is deterministic, so every changed field is a real
# behavioral change), and commit the result. CI gates each bench's fresh
# JSON against these files via ci/check_perf.py.
#
# Every baseline carries a top-level "schema" object (what check_perf gates:
# key/exact/tolerance/floor fields). The bench tools emit plain result JSON,
# and this script re-attaches the existing baseline's schema to the fresh
# output.
#
# Usage: ci/refresh_baselines.sh [build-dir]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$(nproc)" \
  --target fig5_potrf_weak fig12_bspmm serve_jobs scale_engine ablation_device

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# merge FRESH BASELINE: copy the old baseline's schema onto the fresh bench
# output, then replace the baseline.
merge() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
fresh_path, base_path = sys.argv[1], sys.argv[2]
fresh = json.load(open(fresh_path))
schema = json.load(open(base_path))["schema"]
# Keep key order stable: config scalars, schema, points.
out = {k: v for k, v in fresh.items() if k != "points"}
out["schema"] = schema
out["points"] = fresh["points"]
with open(base_path, "w") as f:
    json.dump(out, f, indent=1)
    f.write("\n")
print(f"refreshed {base_path}")
EOF
}

"./$BUILD/bench/fig5_potrf_weak" --per-node 2048 --bs 256 --max-nodes 8 \
  --json "$TMP/fig5.json"
merge "$TMP/fig5.json" ci/BENCH_baseline.json

"./$BUILD/bench/fig12_bspmm" --natoms 180 --max-nodes 32 \
  --json "$TMP/bspmm.json"
merge "$TMP/bspmm.json" ci/BENCH_bspmm_baseline.json

"./$BUILD/bench/serve_jobs" --jobs 24 --max-nodes 8 --max-concurrent 4 \
  --mode open --arrival 0.02 --seed 1 --json "$TMP/jobs.json"
merge "$TMP/jobs.json" ci/BENCH_jobs_baseline.json

"./$BUILD/bench/scale_engine" --json "$TMP/scale.json"
merge "$TMP/scale.json" ci/BENCH_scale_baseline.json

"./$BUILD/bench/ablation_device" --json "$TMP/device.json"
merge "$TMP/device.json" ci/BENCH_device_baseline.json

echo
echo "All baselines refreshed; self-gating each against its own output:"
python3 ci/check_perf.py "$TMP/fig5.json"  ci/BENCH_baseline.json
python3 ci/check_perf.py "$TMP/bspmm.json" ci/BENCH_bspmm_baseline.json
python3 ci/check_perf.py "$TMP/jobs.json"  ci/BENCH_jobs_baseline.json
python3 ci/check_perf.py "$TMP/scale.json" ci/BENCH_scale_baseline.json
python3 ci/check_perf.py "$TMP/device.json" ci/BENCH_device_baseline.json
echo "Review 'git diff ci/' before committing."
