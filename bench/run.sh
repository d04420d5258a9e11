#!/usr/bin/env bash
# Builds napel-serve, napel-gate and the benchmark from the checkout it
# runs in, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh -seed 1 -out bench-out        # all four workloads
#   bash bench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare A.json B.json
#
# Everything it builds or caches stays under .bench_build/: the Go build
# cache and the files the go command would otherwise keep in the home
# directory included, so a run writes nothing outside the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
mkdir -p "$build/bin"
go build -o "$build/bin/" ./cmd/napel-serve ./cmd/napel-gate >&2
(cd bench && go build -o "$build/bin/napel-bench" .) >&2

# The trained models are cached under a hash of what decides them: the
# Go version, the training settings in bench/prep.go and the source of
# every repository package the training code imports.
sources=$(go list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' ./internal/napel ./internal/workload)
mapfile -t sources <<<"$sources"
prep_key=$( (go version; cat bench/prep.go "${sources[@]}") | sha256sum | cut -c1-16)

exec "$build/bin/napel-bench" -bin "$build/bin" -work "$build" -prep-key "$prep_key" "$@"
