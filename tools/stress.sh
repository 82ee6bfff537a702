#!/bin/sh
# Stress rerun: run the test binary N times, each run in the suite's own
# order, count the runs that fail and keep the log of the first one.
# A failing sanitized cell's message names its seed and its nonzero
# violation categories, so that log is where a hunt for an intermittent
# failure starts. Not part of tools/tier1.sh: tier-1 must pass on every
# run, and this tool is for finding out whether it does.
#   sh tools/stress.sh N [SUITE]
# SUITE is an Alcotest suite-name regex (e.g. sanitizer); without it
# every suite runs. Prints one line per failing run and a summary; exits
# 0 when all N runs pass and 1 otherwise. Run from the repository root.
set -e
cd "$(dirname "$0")/.."
usage() {
  echo "usage: sh tools/stress.sh N [SUITE]" >&2
  exit 2
}
[ $# -ge 1 ] && [ $# -le 2 ] || usage
n=$1
case "$n" in
  '' | *[!0-9]*) usage ;;
esac
[ "$n" -ge 1 ] || usage
suite=${2:-}
dune build ./test/test_main.exe
log_dir=_build/stress
first_fail=$log_dir/first_failure.log
run_log=$log_dir/run.log
mkdir -p "$log_dir"
rm -f "$first_fail"
fails=0
i=1
while [ "$i" -le "$n" ]; do
  # From the binary's own directory, as under dune runtest.
  if (cd _build/default/test && ./test_main.exe test $suite) > "$run_log" 2>&1; then
    :
  else
    fails=$((fails + 1))
    failed=$(grep '^> \[FAIL\]' "$run_log" | sed 's/^> \[FAIL\] *//' | tr -s ' ' || true)
    echo "run $i/$n: FAIL ${failed:-(no failing case named; see the log)}"
    if [ ! -f "$first_fail" ]; then
      {
        echo "# stress run $i of $n: test_main.exe test $suite"
        cat "$run_log"
      } > "$first_fail"
    fi
  fi
  i=$((i + 1))
done
rm -f "$run_log"
echo "stress: $fails of $n runs failed${suite:+ (suite $suite)}"
if [ "$fails" -gt 0 ]; then
  echo "stress: first failing log kept in $first_fail"
  exit 1
fi
