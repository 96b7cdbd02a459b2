#!/bin/sh
# Everything the repository's CI would do for this package, which the
# root workspace cannot see: format, lints as errors, and the tests —
# which run the built benchmark at smoke sizes (all four workloads with
# their oracles, the traced pass, and a corrupted oracle that must fail).
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
