#!/usr/bin/env bash
# The benchmark package's own gate. The root scripts/verify.sh does not
# see this package on purpose (the root workspace stays byte-identical),
# so format, lints, unit tests and a smoke run of every workload live here.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
# Same code paths and checks as the full run at smoke sizes; the numbers
# it prints are not comparable with anything.
cargo run --offline --release --quiet -- run --quick --out out/quick.json
