#!/usr/bin/env bash
# Builds tablebench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root, for example
#
#   bash tablebench/run.sh --workload tablei-sop --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/modcache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$root/tablebench" -buildvcs=false -o "$out/tablebench" .
exec "$out/tablebench" "$@"
