#!/usr/bin/env bash
# Builds the benchmark plus the whisper and experiments binaries from the
# checkout in the current directory, then runs the benchmark:
#
#   bash benchmark/run.sh --workload oneshot-sim --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (binaries, Go build cache,
# temporary files, daemon artifact directories, Chrome traces) stays
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod and benchmark/go.mod required)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$PWD/$out"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/whisper" ./cmd/whisper
go build -o "$out/bin/experiments" ./cmd/experiments
(cd benchmark && go build -o "$out/bin/benchmark" .)

exec "$out/bin/benchmark" -out "$out" "$@"
