#!/usr/bin/env bash
# Builds the benchmark from source (offline, from benchmark/vendor) and runs
# it with the given arguments; BENCHMARK.json's `command`. The build is a
# no-op after the first call in a checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR means relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# cargo reads .cargo/config.toml (the vendored source) from the working
# directory, so build from inside benchmark/.
cd "$here"
# One malloc arena: all threads of a run share one CPU (src/host.rs), so an
# arena per thread buys nothing, and peak RSS then depends on which thread
# happened to free what (search_tcp: 133-172 MiB over ten runs, against
# 124-127 with one arena).
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-1}"
cargo build --release --offline --quiet >&2
exec "$target/release/dbbench" --out "$here/out" "$@"
