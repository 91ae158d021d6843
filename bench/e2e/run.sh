#!/usr/bin/env bash
# Build the benchmark and the deadmem executable from source, then run
# the benchmark with the given arguments, from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload paper_suite --seed 1 --seconds 10 --trace 0
#   bash bench/e2e/run.sh --seed 1            # all four workloads
#
# Everything it writes stays inside the checkout: dune's _build/ and the
# benchmark's scratch directory _bench/ (which also takes the compilers'
# temporary files and dune's cache directory).
set -euo pipefail

mkdir -p _bench/tmp
export TMPDIR="$PWD/_bench/tmp"
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/_bench/cache"
dune build --root . ./bench/e2e/deadmem_bench.exe ./bench/e2e/rss_probe ./bin/deadmem_cli.exe >&2
exec ./_build/default/bench/e2e/deadmem_bench.exe \
  --cli ./_build/default/bin/deadmem_cli.exe --workdir _bench "$@"
