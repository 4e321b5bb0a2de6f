#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it in this
# process. Run from the repository root:
#
#   bash _perfbench/run.sh --workload hit-heavy --seed 1 --seconds 30 --trace 0
#
# Every build artefact (compiler cache, temporaries, the binary) stays in
# .bench_build at the root, and exec replaces this shell, so the measured
# program is the only process left running.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
