#!/usr/bin/env bash
# Build the benchmark from the source tree it sits in, then run it from the
# tree's root:
#
#   bash perfbench/run.sh --workload solve_validate --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh selfcheck       # the ledger self-check
#   bash perfbench/run.sh regen-corpus    # rewrite perfbench/corpus/
#
# The last line of stdout is the result object; build output goes to stderr.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no source tree to build here (dune-project and lib/ are missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
# the commit when the tree is a git checkout; the source digest stamped by
# main.exe identifies the build either way
commit=none
if [ -d .git ]; then
  commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git rev-parse --short=12 HEAD 2>/dev/null || echo none)
fi
PERFBENCH_COMMIT=$commit PERFBENCH_NPROC=$(nproc 2>/dev/null || echo unknown) \
  exec ./_build/default/perfbench/main.exe "$@"
