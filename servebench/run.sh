#!/usr/bin/env bash
# Builds and runs the served-stack benchmark from the repository root:
#
#   bash servebench/run.sh --workload hot-cached --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, binary, span dumps).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d servebench ]]; then
	echo "servebench: run from the repository root (go.mod, internal/ and servebench/ must be here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
