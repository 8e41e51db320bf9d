#!/usr/bin/env bash
# One command: build webcache-proxy and the benchmark in release, then
# run wcbench with the arguments given (none: every workload, both
# passes, one result file). See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so wcbench finds the proxy next
# to itself. Cargo resolves a relative CARGO_TARGET_DIR against the
# directory it is run from, so make it absolute first.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet \
  --manifest-path "$root/Cargo.toml" -p webcache-proxy --bin webcache-proxy >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/wcbench" "$@"
