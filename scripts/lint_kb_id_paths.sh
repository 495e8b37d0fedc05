#!/usr/bin/env bash
# Columnar-engine convention (DESIGN.md §5i): the hot KB probe paths are
# dictionary-encoded — they take interned ids (ResourceId / ClassId /
# PropertyId / LiteralId), never raw strings. String→id translation
# happens exactly once, at the resolution boundary (candidate_resources,
# the `*_values` entry points, and the literal NormIndex), so a probe
# inside the §4.1 query loops can never re-normalize or re-hash a label.
# This lint extracts the signatures of the named hot functions and fails
# if any takes &str/String; it also fails on any new &str parameter in
# columnar.rs outside the sanctioned NormIndex dictionary.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

# Extract the signature of `fn <name>(` in <file> (through the opening
# brace — signatures may span lines) and fail if it takes a string.
check_id_only() {
  local file="$1" fn="$2"
  local sig
  sig=$(awk "/fn ${fn}[<(]/{f=1} f{print; if (/\{/) exit}" "$file")
  if [ -z "$sig" ]; then
    echo "error: $file: hot fn \`$fn\` not found (update scripts/lint_kb_id_paths.sh)" >&2
    fail=1
    return
  fi
  if printf '%s' "$sig" | grep -Eq '&str|String'; then
    echo "error: $file: hot fn \`$fn\` takes a string — interned ids only (DESIGN.md §5i):" >&2
    printf '%s\n' "$sig" | sed 's/^/  /' >&2
    fail=1
  fi
}

QUERY=crates/kb/src/query.rs
for fn in types_for_candidates asserted_relations relations_between \
  relations_between_into relations_for_candidates \
  relations_for_candidates_planned holds \
  objects_linked literals_linked two_hop_relations holds_two_hop; do
  check_id_only "$QUERY" "$fn"
done
check_id_only crates/kb/src/store.rs subjects_linking
for fn in adjacency props_at; do
  check_id_only crates/kb/src/columnar.rs "$fn"
done

# The sanctioned string boundary inside the columnar engine is the
# NormIndex literal dictionary (keyed by normalized spellings by
# definition: get / insert / from_sorted). Any other &str parameter in
# columnar.rs is a new string path on the probe side and fails.
extra=$(grep -nE 'fn [a-z_]+\([^)]*&str' crates/kb/src/columnar.rs |
  grep -vE 'fn (get|insert|from_sorted)\(' || true)
if [ -n "$extra" ]; then
  echo "error: crates/kb/src/columnar.rs: unexpected &str fn param outside NormIndex:" >&2
  echo "$extra" | sed 's/^/  /' >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "kb-id-paths lint: OK (hot probe paths are id-only)"
