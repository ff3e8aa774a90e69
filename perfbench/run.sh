#!/usr/bin/env bash
# Builds schemr-server and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload design-search --seed 1 --seconds 30 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/schemr-server" ./cmd/schemr-server >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" --root "$root" --server "$out/bin/schemr-server" --work "$out" "$@"
