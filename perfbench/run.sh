#!/usr/bin/env bash
# Builds the page-load benchmark from the checkout it runs in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload returning --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, data directories, span
# dumps) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"

# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="${build}/config"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local
# Everything builds from the checkout; never fetch a module.
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-buildvcs=false

# The module replaces speedkit with the enclosing repository, so a
# directory holding only the benchmark fails here, before any run.
(cd "${src}" && go build -o "${build}/perfbench" .)

exec "${build}/perfbench" --work-dir "${build}" "$@"
