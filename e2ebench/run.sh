#!/usr/bin/env bash
# Builds cmd/serve and the benchmark binary from this checkout's source,
# then runs the benchmark with the given arguments. Every build and run
# artifact stays under .bench_build/ in the checkout root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/serve and e2ebench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/serve" ./cmd/serve >&2
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2

exec "$out/e2ebench" -serve "$out/serve" -workdir "$out" "$@"
