#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, vault and spill directories) stays under
# .bench_build/ in that root. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" -workdir "$build" "$@"
