#!/usr/bin/env bash
# Tier-1 verification, the lint gate, the bc-verify suite (seeded
# bugs and static analysis included), the quick sweep compared with
# its committed rows, the CLI smoke runs, the examples, and the
# benchmark's quick-mode tests.
#
#   ./ci.sh        # build + tests + lint + verify suite + sweep + smokes
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

    # The verification suite: every entry of the one seeded-bug list
    # flagged by its check (kernel-spec and scheduler mutants, the
    # checkpoint store's tamper cases, serve's stale cache, the planted
    # plain traces), the ten dataset analogues (one observed replay
    # per root and model checks races, invariants, priced atomics, and
    # every level counter against the trace), the exact-score
    # identities, the five equivalence transforms, and the static
    # analysis (the kernel-IR race prover with its minimal-atomic-set
    # audit, the scheduler-interleaving explorer at the full 4x6 bound,
    # and spec-vs-trace conformance over all ten analogues). Each stage
    # prints its wall time.
    echo "==> bc-verify suite"
    cargo run -q -p bc-verify --release --bin bc-verify
    # The quick sweep compared with its committed rows, the CLI
    # smoke runs and the examples (one copy, shared with the CI
    # workflow).
    ./smokes.sh
    # The benchmark's own quick-mode tests: every workload end to end
    # at small size, including serve's bitwise check of served answers
    # against a cold recompute.
    echo "==> perfbench quick tests"
    cargo test --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> ci OK"
