#!/usr/bin/env bash
# Builds the program under test (the unmodified `rtic` binary) and the
# benchmark harness, then hands every argument to the harness:
#
#   benchmark/run.sh [--seed N] [--smoke] [--repeats K] [--out FILE]
#       every workload: K untraced runs and one traced run each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (the driver's form); the last stdout
#       line is the result object
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --bless
#
# Both builds go to $CARGO_TARGET_DIR when it is set; otherwise the
# repository builds into target/ and the harness into benchmark/target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    mkdir -p "$CARGO_TARGET_DIR"
    CARGO_TARGET_DIR="$(cd "$CARGO_TARGET_DIR" && pwd)"
    export CARGO_TARGET_DIR
    rtic="$CARGO_TARGET_DIR/release/rtic"
    harness="$CARGO_TARGET_DIR/release/rtic-benchmark"
else
    rtic="target/release/rtic"
    harness="benchmark/target/release/rtic-benchmark"
fi

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin rtic >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

if [ "${1:-}" = "compare" ]; then
    exec "$harness" "$@"
fi
exec "$harness" --rtic "$rtic" "$@"
