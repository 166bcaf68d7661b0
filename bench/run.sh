#!/usr/bin/env bash
# The benchmark's one command: build bench/ from source, then run it with
# the arguments given. Everything the build and the run write — Go build
# cache, temporary files, the binary, durable directories, traces and
# results — stays under bench/out/, inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" GOPATH="$PWD/out/gopath"
# The module has no dependencies beyond the repository itself; never reach
# for the network or another toolchain.
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o out/bench .
exec out/bench "$@"
