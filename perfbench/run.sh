#!/usr/bin/env bash
# Builds the benchmark and the sadpd daemon from the sources of the checkout
# this script sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload congested --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary and configuration files, binaries and trace
# files all stay under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/sadpd" sadproute/cmd/sadpd
) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
