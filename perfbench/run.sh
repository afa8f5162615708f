#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload measure --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the build's temporary files and a
# traced run's spans go to $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
(
	cd "$(dirname "$0")"
	GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -buildvcs=false -o "$out/perfbench" .
)
exec "$out/perfbench" --span-dir "$out" "$@"
