#!/usr/bin/env bash
# Entry point the benchmark driver calls (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds satbench from this directory's own module, keeping every build
# product (Go's build cache included) under .bench_build/ in the
# checkout, then hands its arguments over. satbench builds cmd/satserved
# the same way. Without the repository around it (no go.mod beside
# BENCHMARK.json) there is nothing to measure: exit non-zero, print no
# result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/satserved" ]]; then
	echo "bench/run.sh: $root is not the repository checkout (no go.mod or cmd/satserved)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local
# Go's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME="$build/config"

go build -C "$root/bench" -o "$build/bin/satbench" ./cmd/satbench
exec "$build/bin/satbench" -root "$root" "$@"
