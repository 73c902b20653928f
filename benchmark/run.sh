#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, which is where BENCHMARK.json's command starts it. Everything
# the build and the run write stays inside the checkout: the Go caches
# and the binary under .bench_build/, traces and scratch data under
# benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
(
  # The toolchain's own files (build cache, module cache, telemetry
  # counters under the user configuration directory) stay in here too.
  export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
  export XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local
  cd benchmark && go build -o "$build/logres-benchmark" .
)
exec "$build/logres-benchmark" "$@"
