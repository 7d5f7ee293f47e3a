#!/bin/sh
# Builds the benchmark from this checkout's sources, then runs it with
# the given arguments (see benchmark/README.md).  Run it from the root of
# the checkout.  Build output goes to stderr, so the last line of standard
# output is the run's JSON result; the shared dune cache stays off, so the
# build writes only under _build/.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
