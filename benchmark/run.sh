#!/usr/bin/env bash
# Builds the benchmark driver and runs it. With --workload it is one run of
# one workload (the form BENCHMARK.json names); without, the whole suite.
# See README.md, or run with --help.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The driver is built from the repository's crates and must inherit the
# root .cargo/config.toml (target-cpu=native), which cargo only finds from
# inside the tree: refuse to run from anywhere else.
case "$PWD/" in
  "$root"/*) ;;
  *) echo "run.sh: run from inside $root (cwd is $PWD)" >&2; exit 2 ;;
esac
if [[ ! -f "$root/crates/core/Cargo.toml" || ! -f "$root/.cargo/config.toml" ]]; then
  echo "run.sh: $root is not the repository (no crates/, no .cargo/config.toml)" >&2
  exit 2
fi

cd "$root"
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2
target="${CARGO_TARGET_DIR:-benchmark/target}"
exec "$target/release/semcom-benchmark" "$@"
