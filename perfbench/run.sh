#!/usr/bin/env bash
# Builds fpd's end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload place-miss --seed 1 --seconds 10 --trace 0
#
# Every build output, including the Go build cache, stays inside the
# checkout under .bench_build/ ($CARGO_TARGET_DIR, when set, names that
# directory instead).
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/fpdbench" .)
exec "$out/fpdbench" "$@"
