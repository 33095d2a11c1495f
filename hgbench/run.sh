#!/usr/bin/env bash
# Build hgd and the benchmark from this checkout, then run one
# benchmark run:  bash hgbench/run.sh --workload NAME --seed N
#                     --seconds S --trace 0|1
# Build output goes to stderr; stdout carries only the run's report,
# whose last line is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/hgd.ml ] || [ ! -f hgbench/dune ]; then
  echo "hgbench/run.sh: run from the root of a hyperprot checkout" >&2
  exit 2
fi
# No shared dune cache: the build reads and writes only this checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/hgd.exe ./hgbench/hgbench.exe 1>&2
exec ./_build/default/hgbench/hgbench.exe --hgd ./_build/default/bin/hgd.exe "$@"
