#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash perfbench/run.sh --workload iccad-mix --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Every file the Go toolchain writes (build cache, module cache, temp
# files, telemetry) goes under .bench_build in the current directory, and
# the toolchain never downloads anything. Without the repository's Go
# module next to perfbench/ the build fails and so does this script.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
