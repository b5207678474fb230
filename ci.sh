#!/usr/bin/env bash
# Tier-1 verification, the lint gate, the bc-verify suite, the bench
# smoke runs, and the benchmark's quick-mode tests.
#
#   ./ci.sh        # build + tests + lint + verify suite + bench smoke
#   ./ci.sh fast   # build + tests only
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "${1:-}" != "fast" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    # Docs gate: rustdoc must build clean (broken intra-doc links and
    # invalid HTML are errors, not noise).
    echo "==> cargo doc -D warnings"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

    # Static-analysis gate: the kernel-IR race prover (backward sweep
    # and pull discovery race-free for ALL inputs, minimal atomic sets
    # = declared = priced), the exhaustive scheduler-interleaving
    # explorer at the full 4x6 bound, and the spec-vs-trace
    # conformance replay over all ten dataset analogues.
    echo "==> bc-analyze gate"
    cargo run -q -p bc-analyze --release --bin bc-analyze
    # The analyzer's own regression suite: every seeded bug
    # (predecessor-style accumulation, CAS-less dedup, level
    # off-by-one, torn steal, completion-order merge) must be flagged.
    echo "==> bc-analyze mutation battery"
    cargo run -q -p bc-analyze --release --bin bc-analyze -- --mutation-battery --quick

    # Race detector + invariant suite: seeded-bug self-test, the ten
    # dataset analogues (one observed replay per root and model checks
    # races, invariants, priced atomics, and every level counter
    # against the trace), the exact-score identities, and the later
    # stages. Each stage prints its wall time.
    echo "==> bc-verify suite"
    cargo run -q -p bc-verify --release --bin bc-verify
    # Smoke-scale trajectory: few roots, 2-thread parallel arm. The
    # binary itself asserts bitwise thread-invariance of scores and
    # simulated times on every (graph, method) pair.
    echo "==> bench_trajectory smoke"
    cargo run -q -p bc-bench --release --bin bench_trajectory -- --roots 8 --threads 2
    # Direction-optimizing smoke: push vs pull vs auto on small
    # graphs; the binary asserts the three modes are bitwise
    # identical at every thread count.
    echo "==> bench_direction smoke"
    cargo run -q -p bc-bench --release --bin bench_direction -- --quick 1 --roots 4
    # Fault-injection smoke: the sweep binary asserts every
    # recoverable fault plan reproduces the fault-free scores bitwise
    # (bc-verify stage 4 covers the same claim at suite scale).
    echo "==> bench_faults smoke"
    cargo run -q -p bc-bench --release --bin bench_faults -- --quick 1
    # CLI fault path: a faulted cluster run must recover, verify, and
    # report its counters.
    echo "==> cluster --faults smoke"
    cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
        --method work-efficient --cluster 2 --roots 16 \
        --faults seed=7,transient=0.2,dead=1,drop=0.3 --top 0 --verify
    # Metrics smoke: the sweep binary asserts metering is bitwise
    # observation-only per (dataset, method) row, and the CLI flag
    # must produce a well-formed JSONL stream on both the
    # single-device and cluster paths.
    echo "==> bench_metrics smoke"
    cargo run -q -p bc-bench --release --bin bench_metrics -- --quick 1
    echo "==> cli --metrics smoke"
    cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
        --method hybrid --roots 16 --metrics results/ci_metrics.jsonl --top 0
    grep -q '"kind":"summary"' results/ci_metrics.jsonl
    cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
        --method work-efficient --cluster 2 --roots 16 \
        --metrics results/ci_metrics_cluster.jsonl --top 0
    grep -q '"kind":"cluster_summary"' results/ci_metrics_cluster.jsonl
    # Scheduler smoke: the bench asserts every schedule reproduces the
    # static scores bitwise; the CLI run exercises the work-stealing
    # path end to end and must emit per-worker records in the JSONL.
    echo "==> bench_schedule smoke"
    cargo run -q -p bc-bench --release --bin bench_schedule -- --quick 1
    echo "==> cli --schedule smoke"
    cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 7 \
        --method work-efficient --schedule work-stealing --threads 4 --roots 32 \
        --metrics results/ci_metrics_schedule.jsonl --top 0 --verify
    grep -q '"kind":"worker"' results/ci_metrics_schedule.jsonl
    # Scaling smoke: the bench hard-asserts the degree-relabeling
    # transaction win, the u32->u64 pricing delta, and that a
    # 2M-vertex Kronecker streams through the partitioned cluster
    # path bitwise identical under a recoverable fault plan (where
    # the resident path fails pre-flight with OOM). The CLI run
    # exercises --relabel end to end: scores restored to the original
    # numbering and verified against the unrelabeled graph.
    echo "==> bench_scale smoke"
    cargo run -q -p bc-bench --release --bin bench_scale -- --quick
    echo "==> cli --relabel smoke"
    cargo run -q -p hybrid-bc --release -- --dataset smallworld --reduction 6 \
        --method work-efficient --roots 32 --relabel degree --verify --top 0
    # Durability smoke: the bench kills the durable runner at five
    # points, resumes each from its checkpoint, and hard-asserts the
    # resumed scores are bitwise identical to the uninterrupted run;
    # it also drives both rungs of the graceful-degradation ladder.
    echo "==> bench_durability smoke"
    cargo run -q -p bc-bench --release --bin bench_durability -- --quick 1
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
    # Serving smoke: the bench hard-asserts batched+cached responses
    # are bitwise identical to per-query cold recomputes, that the
    # cache is exercised on every workload, and that coalescing
    # strictly reduces priced device seconds vs the unbatched,
    # uncached baseline (bc-verify stage 8 covers the same claims
    # at suite scale: 27 combos x 10 dataset analogues + the
    # stale-cache mutant).
    echo "==> bench_serve smoke"
    cargo run -q -p bc-bench --release --bin bench_serve -- --quick 1
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
    # The benchmark's own quick-mode tests: every workload end to end
    # at small size, including serve's bitwise check of served answers
    # against a cold recompute.
    echo "==> perfbench quick tests"
    cargo test --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> ci OK"
