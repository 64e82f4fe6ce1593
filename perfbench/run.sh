#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload link-paper --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary and the traced runs' spans all stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
