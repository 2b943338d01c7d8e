#!/usr/bin/env bash
# Builds the benchmark and detserve from this checkout and runs the benchmark.
# Everything the build writes (Go's build cache included) stays under
# .bench_build in the checkout, which .gitignore names; the only inputs are
# the checkout and the installed Go toolchain, and nothing is fetched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off
# Nothing is downloaded (the only requirement is the parent directory), but
# go refuses to start without somewhere to put a module cache.
export GOMODCACHE="${GOMODCACHE:-$out/gomod}"
# The go command keeps its telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/bin/bench" .) >&2
(cd "$root" && go build -o "$out/bin/detserve" ./cmd/detserve) >&2

exec "$out/bin/bench" -root "$root" -detserve "$out/bin/detserve" "$@"
