#!/usr/bin/env bash
# Builds the weseer binary and the benchmark harness from this checkout,
# then runs one benchmark invocation. From the root of a checkout:
#
#   bash perfbench/run.sh --workload table2|gen-1056|serve-mix --seed N --seconds S --trace 0|1
#
# Build output, the Go build cache, stores and results all stay under
# .bench_build in the checkout. Building happens before the harness
# starts, so no build time reaches any measurement.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# With telemetry on, the go command starts a detached sidecar process that
# can outlive the build. Turning it off first (a command that starts no
# sidecar itself) keeps every go invocation below free of it.
go telemetry off >&2

(cd "$root" && go build -o "$out/bin/weseer" ./cmd/weseer) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -weseer "$out/bin/weseer" -out "$out" "$@"
