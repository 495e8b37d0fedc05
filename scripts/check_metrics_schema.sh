#!/usr/bin/env bash
# Validate the schema of a katara-obs RunMetrics JSON file (crates/obs,
# `katara clean --metrics OUT.json`):
#
#   * the katara-run-metrics/v1 schema tag;
#   * a "deterministic" section holding "counters", "gauges" and
#     "histograms", with counter keys in sorted order (sorted keys are
#     what makes the section byte-diffable across runs);
#   * one representative counter per pipeline phase, so a metrics file
#     from a run that silently skipped instrumentation fails loudly;
#   * the snapshot-tier accounting invariant hits + misses == lookups
#     for every resolve tier (only the pair tier has misses);
#   * a "nondeterministic" section with an integer "threads".
#
# Usage: check_metrics_schema.sh FILE...
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 METRICS.json..." >&2
  exit 2
fi

status=0
for file in "$@"; do
  if [ ! -f "$file" ]; then
    echo "$file: missing" >&2
    status=1
    continue
  fi
  ok=1
  if ! grep -q '"schema": "katara-run-metrics/v1"' "$file"; then
    echo "$file: missing the katara-run-metrics/v1 schema tag" >&2
    ok=0
  fi
  for key in '"deterministic": {' '"counters": {' '"gauges": {' \
             '"histograms": {' '"nondeterministic": {'; do
    if ! grep -qF "$key" "$file"; then
      echo "$file: missing section $key" >&2
      ok=0
    fi
  done
  # One representative counter per pipeline phase, value a bare integer.
  for counter in ingest.quarantined resolve.candidates_lookups \
                 discovery.type_probes validation.questions \
                 annotation.enriched_facts repair.graphs_built \
                 crowd.questions_asked; do
    if ! grep -Eq "\"$counter\": [0-9]+" "$file"; then
      echo "$file: missing integer counter \"$counter\"" >&2
      ok=0
    fi
  done
  if ! grep -Eq '"threads": [0-9]+' "$file"; then
    echo "$file: missing integer \"threads\" in the nondeterministic section" >&2
    ok=0
  fi
  # Counter keys must be sorted — that ordering is the byte-stability
  # contract of the deterministic section.
  keys=$(sed -n '/"counters": {/,/},/p' "$file" | sed -n 's/^ *"\([a-z_.]*\)": [0-9].*/\1/p')
  if [ -n "$keys" ] && ! printf '%s\n' "$keys" | sort -C; then
    echo "$file: counter keys are not sorted" >&2
    ok=0
  fi
  # Snapshot-tier invariant: hits + misses == lookups.
  for tier in candidates types pair; do
    if ! awk -v tier="$tier" '
      $0 ~ "\"resolve\\." tier "_" { gsub(/[",:]/, ""); v[$1] = $2 }
      END {
        h = v["resolve." tier "_hit"]; m = v["resolve." tier "_miss"]
        l = v["resolve." tier "_lookups"]
        exit (h + m == l) ? 0 : 1
      }' "$file"; then
      echo "$file: resolve.$tier tier violates hits+misses == lookups" >&2
      ok=0
    fi
  done
  if [ "$ok" -eq 1 ]; then
    echo "$file: schema OK"
  else
    status=1
  fi
done
exit "$status"
