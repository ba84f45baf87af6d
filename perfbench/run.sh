#!/bin/sh
# Builds the benchmark and srserved from source, then runs one workload
# from the root of a checkout:
#
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the last line of standard output
# is the result (see perfbench/README.md).
set -eu
for f in dune-project lib bin/srserved.ml perfbench/dune; do
  if [ ! -e "$f" ]; then
    echo "perfbench: $f not found; run from the root of a checkout of the repository" >&2
    exit 1
  fi
done
dune build --root . ./perfbench/main.exe ./bin/srserved.exe 1>&2
# The benchmark and the srserved it starts share one CPU, so that the
# reference computation (calib.ml) times the CPU the server runs on.
# Unpinned where taskset is missing or may not use that CPU.
cpu=$(($(nproc) - 1))
if command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" ./_build/default/perfbench/main.exe "$@"
fi
exec ./_build/default/perfbench/main.exe "$@"
