#!/usr/bin/env bash
# Builds lwmd and the lwmbench load generator from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash lwmbench/run.sh --workload mark --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, daemon state and spans.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lwmd" ] || [ ! -f "$root/lwmbench/go.mod" ]; then
	echo "lwmbench: run from the root of a localwm checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$root" && go build -o "$out/bin/lwmd" ./cmd/lwmd) >&2
(cd "$root/lwmbench" && go build -o "$out/bin/lwmbench" .) >&2

export TMPDIR="$out/tmp"
exec "$out/bin/lwmbench" -lwmd "$out/bin/lwmd" -work "$out/work" -root "$root" "$@"
