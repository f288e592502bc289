#!/usr/bin/env bash
# The one command: build the benchmark (a workspace of its own, into the root
# target directory or $CARGO_TARGET_DIR) and run it. See README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/upcxx-benchmark" "$@"
