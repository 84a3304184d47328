#!/usr/bin/env bash
# The benchmark's single entry point: builds it (release, offline) and runs it.
#
#   benchmark/run.sh                                  every workload: tables + results/{e2e,layers,trace}.json
#   benchmark/run.sh run --quick                      the same at a tenth of the size, one sample each
#   benchmark/run.sh selfcheck                        the untraced set twice, compared against BENCHMARK.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                     one workload; last stdout line is the driver's JSON
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
