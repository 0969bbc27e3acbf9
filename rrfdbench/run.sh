#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything the build and the run write stays under
# .bench_build at the checkout root (the Go build cache included).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$root/rrfdbench" && go build -o "$out/rrfdbench" .) >&2
cd "$root"
exec "$out/rrfdbench" "$@"
