#!/usr/bin/env bash
# Builds the same-host benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash hostbench/run.sh --workload fig9_p4096 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, disk store, span files) stays under
# .bench_build/ in that directory; no network is used.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/hostbench/go.mod" ]]; then
	echo "hostbench: run from the repository root (go.mod and hostbench/go.mod must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" --out "$out" "$@"
