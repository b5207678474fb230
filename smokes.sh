#!/usr/bin/env bash
# The paper and extension sweeps at quick scale compared with their
# committed rows, then the CLI smoke runs. `ci.sh` and the CI
# workflow both run this script.
#
#   ./smokes.sh
set -euo pipefail
cd "$(dirname "$0")"

# Every sweep section at quick scale (the paper's tables and figures,
# then the extensions), compared with the committed rows: every line
# but `commit` and the host-clock `host_*` fields must come out the
# same, so a priced number that moves by one bit fails here. The
# committed file is put back afterwards. The sweep's only assert is
# its >= 2M-vertex partitioned cluster run (resident pre-flight OOM,
# scores bitwise under faults); the claims the old per-sweep asserts
# made are tier-1 tests and bc-verify stages.
echo "==> sweep --quick vs results/BENCH_sweep_quick.json"
committed=$(mktemp)
cp results/BENCH_sweep_quick.json "$committed"
trap 'cp "$committed" results/BENCH_sweep_quick.json; rm -f "$committed"' EXIT
cargo run -q -p bc-bench --release --bin sweep -- --quick
pinned() { grep -Ev '^ *"(commit|host_[a-z0-9_]*)":' "$1"; }
diff <(pinned "$committed") <(pinned results/BENCH_sweep_quick.json)
# CLI fault path: a faulted cluster run must recover, verify, and
# report its counters.
echo "==> cluster --faults smoke"
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
    --method work-efficient --cluster 2 --roots 16 \
    --faults seed=7,transient=0.2,dead=1,drop=0.3 --top 0 --verify
# Metrics smoke: the CLI flag must produce a well-formed JSONL
# stream on both the single-device and cluster paths.
echo "==> cli --metrics smoke"
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
    --method hybrid --roots 16 --metrics results/ci_metrics.jsonl --top 0
grep -q '"kind":"summary"' results/ci_metrics.jsonl
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
    --method work-efficient --cluster 2 --roots 16 \
    --metrics results/ci_metrics_cluster.jsonl --top 0
grep -q '"kind":"cluster_summary"' results/ci_metrics_cluster.jsonl
# Scheduler smoke: the work-stealing path end to end must emit
# per-worker records in the JSONL.
echo "==> cli --schedule smoke"
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
    --method work-efficient --schedule work-stealing --threads 4 --roots 32 \
    --metrics results/ci_metrics_schedule.jsonl --top 0 --verify
grep -q '"kind":"worker"' results/ci_metrics_schedule.jsonl
# Relabel smoke: scores restored to the original numbering and
# verified against the unrelabeled graph.
echo "==> cli --relabel smoke"
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 6 \
    --method work-efficient --roots 32 --relabel degree --verify --top 0
# CLI durability path: kill a checkpointed cluster run mid-flight
# (exit code 1, structured message), then resume it from the same
# directory and verify the completed scores.
echo "==> cli --checkpoint kill/resume smoke"
rm -rf results/ci_ckpt
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
    --method work-efficient --cluster 2 --roots 16 \
    --checkpoint results/ci_ckpt --faults seed=7,kill=0.5 --top 0 \
    && { echo "expected the kill to interrupt the run"; exit 1; } \
    || true
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
    --method work-efficient --cluster 2 --roots 16 \
    --checkpoint results/ci_ckpt --faults seed=7 --top 0 --verify
rm -rf results/ci_ckpt
# bc-serve request smoke: open-loop traffic with live edits must
# produce well-formed serve rows.
echo "==> bc-serve smoke"
cargo run -q -p bc-serve --release --bin bc-serve -- --dataset smallworld \
    --reduction 8 --requests 12 --edits 2 --metrics results/ci_serve.jsonl
grep -q '"kind":"serve"' results/ci_serve.jsonl
# CLI serving path: --serve drives the same server through
# hybrid-bc and must emit serve rows in the JSONL.
echo "==> cli --serve smoke"
cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 8 \
    --serve 12 --serve-edits 2 --metrics results/ci_serve_cli.jsonl
grep -q '"kind":"serve"' results/ci_serve_cli.jsonl
