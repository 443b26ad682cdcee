#!/usr/bin/env bash
# Builds the harness from source and runs it from the root of the checkout.
# Everything the Go toolchain writes goes under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOPROXY=off GOTOOLCHAIN=local
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
(cd e2ebench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
