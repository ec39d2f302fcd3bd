#!/usr/bin/env bash
# Builds the shipped `run` example (the server under test) and this
# benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. See perfbench/README.md.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --example run >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/examples/run" \
    --out "$CARGO_TARGET_DIR/perfbench" "$@"
