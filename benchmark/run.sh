#!/usr/bin/env bash
# Entry point of the benchmark, named in BENCHMARK.json. Run it from the
# repository root; arguments go to the benchmark program (see main.go).
# Everything it writes — the Go build cache, the two binaries, the generated
# datasets — stays under .bench_build/ of the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# go keeps telemetry counters in the user's configuration directory; point
# that at the build directory, and keep reading the user's own go settings.
GOENV=$(go env GOENV)
export GOENV GOCACHE="$build/gocache" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

go build -C "$root/benchmark" -o "$build/bin/rdfbench" . >&2
exec "$build/bin/rdfbench" -root "$root" "$@"
