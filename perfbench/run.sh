#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload md-cascade --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, module cache, tool config, temporary
# files) stays under .bench_build in the working directory. Without the
# repository's sources next to perfbench/ the build fails and the script
# exits 1.
set -u
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" || exit 1
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS="-mod=mod -buildvcs=false" GOTOOLCHAIN=local
if ! go -C perfbench build -o "$out/perfbench" .; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
