#!/usr/bin/env bash
# Validate the schema of a BENCH_*.json report (crates/bench/src/perf.rs).
# Five shapes exist: thread-scaling reports (samples keyed by
# "threads"), the resolve report (samples keyed by "config": cold vs
# snapshot, plus "distinct_ratio" and "triples"), the serve report
# (samples keyed by "config" and "concurrency", with req/s and latency
# percentiles), the incremental report (samples keyed by "config": full
# vs delta, at several "edit_rate"s, each carrying its discovery+repair
# "work_counters" sum), and the crowd report (samples keyed by fault
# "plan" and aggregation mode "agg", with accuracy-at-budget figures and
# the crowd.* quality counters). The file's "bench" field picks the
# shape.
# Usage: check_bench_schema.sh FILE...
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 BENCH_<name>.json..." >&2
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
  for key in '"bench"' '"fixture"' '"mode"' '"parallelism"' '"samples"'; do
    if ! grep -q "$key" "$file"; then
      echo "$file: missing key $key" >&2
      ok=0
    fi
  done
  # mode must be quick or full.
  if ! grep -Eq '"mode": "(quick|full)"' "$file"; then
    echo "$file: \"mode\" must be \"quick\" or \"full\"" >&2
    ok=0
  fi
  # parallelism is a bare integer.
  if ! grep -Eq '"parallelism": [0-9]+,' "$file"; then
    echo "$file: \"parallelism\" must be an integer" >&2
    ok=0
  fi
  # Embedded run metrics: every bench that writes a report also embeds
  # the katara-obs metrics of one instrumented run.
  if ! grep -q '"metrics": {' "$file"; then
    echo "$file: missing embedded \"metrics\" object" >&2
    ok=0
  fi
  if ! grep -q '"schema": "katara-run-metrics/v1"' "$file"; then
    echo "$file: embedded metrics missing the katara-run-metrics/v1 schema tag" >&2
    ok=0
  fi
  if grep -Eq '"bench": "resolve"' "$file"; then
    # Resolve report: cold-vs-snapshot end-to-end clean, plus the
    # fixture's scale.
    if ! grep -Eq '"distinct_ratio": [0-9]+\.[0-9]+,' "$file"; then
      echo "$file: missing numeric \"distinct_ratio\"" >&2
      ok=0
    fi
    if ! grep -Eq '"triples": [0-9]+,' "$file"; then
      echo "$file: missing integer \"triples\" (KB size the probes ran at)" >&2
      ok=0
    fi
    for config in cold snapshot; do
      if ! grep -Eq '\{ "config": "'"$config"'", "iters": [0-9]+, "wall_ms": [0-9]+\.[0-9]+, "speedup": [0-9]+\.[0-9]+ \}' "$file"; then
        echo "$file: no well-formed \"$config\" sample (config/iters/wall_ms/speedup)" >&2
        ok=0
      fi
    done
  elif grep -Eq '"bench": "serve"' "$file"; then
    # Serve report: daemon throughput/latency, cold vs warm snapshot
    # cache, at two or more concurrency levels.
    for config in cold warm; do
      if ! grep -Eq '\{ "config": "'"$config"'", "concurrency": [0-9]+, "requests": [0-9]+, "req_per_s": [0-9]+\.[0-9]+, "p50_ms": [0-9]+\.[0-9]+, "p99_ms": [0-9]+\.[0-9]+ \}' "$file"; then
        echo "$file: no well-formed \"$config\" sample (config/concurrency/requests/req_per_s/p50_ms/p99_ms)" >&2
        ok=0
      fi
    done
    levels=$(grep -Eo '"concurrency": [0-9]+' "$file" | sort -u | wc -l)
    if [ "$levels" -lt 2 ]; then
      echo "$file: serve report must cover at least 2 concurrency levels (found $levels)" >&2
      ok=0
    fi
  elif grep -Eq '"bench": "incremental"' "$file"; then
    # Incremental report: full re-clean vs delta replay at several edit
    # rates, with the logical-work sum alongside each wall time.
    for config in full delta; do
      if ! grep -Eq '\{ "config": "'"$config"'", "edit_rate": [0-9]+\.[0-9]+, "iters": [0-9]+, "wall_ms": [0-9]+\.[0-9]+, "speedup": [0-9]+\.[0-9]+, "work_counters": [0-9]+ \}' "$file"; then
        echo "$file: no well-formed \"$config\" sample (config/edit_rate/iters/wall_ms/speedup/work_counters)" >&2
        ok=0
      fi
    done
    rates=$(grep -Eo '"edit_rate": [0-9]+\.[0-9]+' "$file" | sort -u | wc -l)
    if [ "$rates" -lt 2 ]; then
      echo "$file: incremental report must cover at least 2 edit rates (found $rates)" >&2
      ok=0
    fi
    # The delta path must record its delta.* counters in the embedded
    # metrics — that is what makes "fraction of full work" auditable.
    for counter in delta.tuples_touched delta.patterns_rescored; do
      if ! grep -Eq '"'"$counter"'": [0-9]+' "$file"; then
        echo "$file: embedded metrics missing the \"$counter\" counter" >&2
        ok=0
      fi
    done
  elif grep -Eq '"bench": "crowd"' "$file"; then
    # Crowd report: plurality vs Dawid–Skene on seeded fault plans at
    # equal worker-answer budget. Every sample carries the spend and
    # quality fields; both aggregation modes must be present.
    for agg in plurality dawid-skene; do
      if ! grep -Eq '\{ "plan": "[^"]+", "agg": "'"$agg"'", "questions": [0-9]+, "answers": [0-9]+, "accuracy": [0-9]+\.[0-9]+, "escalations": [0-9]+, "questions_saved": [0-9]+, "wall_ms": [0-9]+\.[0-9]+ \}' "$file"; then
        echo "$file: no well-formed \"$agg\" sample (plan/agg/questions/answers/accuracy/escalations/questions_saved/wall_ms)" >&2
        ok=0
      fi
    done
    plans=$(grep -Eo '"plan": "[^"]+"' "$file" | sort -u | wc -l)
    if [ "$plans" -lt 2 ]; then
      echo "$file: crowd report must cover at least 2 fault plans (found $plans)" >&2
      ok=0
    fi
    # The embedded metrics must carry the Dawid–Skene quality counters
    # of the instrumented run.
    for counter in crowd.em_iterations crowd.posterior_confident crowd.escalations crowd.questions_saved; do
      if ! grep -Eq '"'"$counter"'": [0-9]+' "$file"; then
        echo "$file: embedded metrics missing the \"$counter\" counter" >&2
        ok=0
      fi
    done
  else
    # Thread-scaling report: at least one sample with all four numeric
    # fields on one line.
    if ! grep -Eq '\{ "threads": [0-9]+, "iters": [0-9]+, "wall_ms": [0-9]+\.[0-9]+, "speedup": [0-9]+\.[0-9]+ \}' "$file"; then
      echo "$file: no well-formed sample (threads/iters/wall_ms/speedup)" >&2
      ok=0
    fi
    # The sweep must include the 1-thread baseline.
    if ! grep -Eq '\{ "threads": 1, ' "$file"; then
      echo "$file: missing the threads=1 baseline sample" >&2
      ok=0
    fi
  fi
  if [ "$ok" -eq 1 ]; then
    echo "$file: schema OK"
  else
    status=1
  fi
done
exit "$status"
