#!/usr/bin/env bash
# Builds cmd/served and the benchmark from the checkout it is run in,
# then runs the benchmark with the given arguments. Run it from the root
# of the repository:
#
#   bash perfbench/run.sh --workload dash-rw --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --report 10 --seconds 25     # steadiness report
#
# Everything it writes (Go build cache, binaries, data directories, logs,
# spans) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/served" ]; then
	echo "perfbench: run from the root of the repository; go.mod or cmd/served is missing in $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/home/.config/go/telemetry" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
# With telemetry on (the default "local" mode) the go command starts a
# detached upload process that outlives it; switch it off so every
# process this script starts has ended when it exits.
printf 'off\n' >"$out/home/.config/go/telemetry/mode"

go build -o "$out/served" ./cmd/served
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --served "$out/served" --work "$out/perfbench" "$@"
