#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test      (regenerate and diff expected/)
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a full checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
build=.bench_build
export DUNE_CACHE=disabled XDG_CACHE_HOME="$PWD/$build/xdg-cache"
dune build --root . --build-dir "$build" --profile release \
  ./perfbench/bench.exe >&2 || exit 3
exec "$build/default/perfbench/bench.exe" "$@"
