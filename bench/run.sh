#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# repository root. Everything the build leaves behind — Go's build cache
# and temporary files included — stays inside the checkout, under
# .bench_build/. Arguments go to the program unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# The checkout's revision is passed in at link time; Go's own VCS stamping is
# off because it fails the build where git distrusts the directory.
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
