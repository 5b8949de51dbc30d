#!/usr/bin/env bash
# Builds ftbfsd and the e2ebench command from this checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload zipf-hot --seed 1 --seconds 20 --trace 0
#
# Every build output, Go cache and report stays under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ftbfsd" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a repository checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/xdg-config" XDG_CACHE_HOME="$out/xdg-cache"

go build -o "$out/ftbfsd" ./cmd/ftbfsd
(cd e2ebench && go build -o "$out/e2ebench" .)

commit=
if [[ -d .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || true)
fi
exec "$out/e2ebench" -daemon "$out/ftbfsd" -out "$out/e2ebench-results" -commit "$commit" "$@"
