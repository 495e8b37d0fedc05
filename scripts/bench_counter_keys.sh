#!/usr/bin/env bash
# Compare the deterministic counter names of BENCH_*.json reports across a
# bench run. Every report embeds one "counters" object (the
# katara-run-metrics/v1 "deterministic" section, one key per line). CI
# saves the committed reports' names before the bench steps regenerate
# the files, and checks the regenerated ones against them afterwards, so
# a change that adds or removes a counter fails until the committed
# reports are regenerated with it.
#
# Usage: bench_counter_keys.sh save DIR FILE...
#        bench_counter_keys.sh check DIR FILE...
set -euo pipefail

if [ "$#" -lt 3 ] || { [ "$1" != save ] && [ "$1" != check ]; }; then
  echo "usage: $0 save|check DIR BENCH_<name>.json..." >&2
  exit 2
fi
mode=$1
dir=$2
shift 2

# The counter names of one report, in file order.
keys() {
  sed -n '/"counters": {/,/}/p' "$1" | grep -Eo '^ *"[a-z0-9_.]+": [0-9]+' |
    cut -d'"' -f2
}

mkdir -p "$dir"
status=0
for file in "$@"; do
  record="$dir/$(basename "$file").keys"
  if [ ! -f "$file" ]; then
    echo "$file: missing" >&2
    status=1
    continue
  fi
  if [ "$mode" = save ]; then
    keys "$file" >"$record"
    if [ ! -s "$record" ]; then
      echo "$file: no deterministic counters" >&2
      status=1
    else
      echo "$file: $(wc -l <"$record") counter keys saved"
    fi
  elif keys "$file" | diff -u --label "$file (committed)" --label "$file (regenerated)" "$record" -; then
    echo "$file: counter keys match the committed report"
  else
    echo "$file: counter keys differ from the committed report; regenerate it" >&2
    status=1
  fi
done
exit "$status"
