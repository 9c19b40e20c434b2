#!/usr/bin/env bash
# Builds flexserve and the perfbench harness from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload full_design --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temp files, binaries) stays
# under .bench_build/ in the checkout. Arguments pass through to the
# harness; see perfbench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/flexserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/flexserve and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS=
mkdir -p "$out/bin" "$GOTMPDIR"

go build -o "$out/bin/flexserve" ./cmd/flexserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -flexserve "$out/bin/flexserve" "$@"
