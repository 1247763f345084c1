#!/usr/bin/env bash
# Builds the benchmark harness and runs it. Run from the repository root:
#   bash bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the go command's temporary and configuration directories and
# the binaries under .bench_build/, traces and server logs under bench/out/.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
