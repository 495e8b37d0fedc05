#!/usr/bin/env bash
# Workspace convention (DESIGN.md §5e): order-preserving dedup on KB
# query results goes through katara_kb::dedup (hashed first-occurrence
# set), never through the quadratic
# `if !out.contains(&x) { out.push(x) }` idiom. On hub entities with
# hundreds of types/candidates that loop is O(n²) per cell and it was
# the discovery hot path's dominant cost. This lint fails on any
# `if !…contains(` dedup guard in the files that historically carried
# the pattern.
set -euo pipefail

cd "$(dirname "$0")/.."

# Files the lint covers (the historical offenders, plus the columnar
# engine, which must stay contains()-free from day one). dedup.rs is
# deliberately not scanned: its tests keep the naive contains() scan as
# the reference implementation.
FILES="crates/kb/src/query.rs crates/kb/src/columnar.rs crates/core/src/candidates.rs"

# Allowlisted files (exact repo-relative paths), one per line, with a
# justification. Currently empty: the dedup module is hashed now and no
# production file carries a sanctioned contains() fallback any more.
ALLOW=""

fail=0
while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  file=${hit%%:*}
  case "$ALLOW" in
    *"$file"*) continue ;;
  esac
  if [ "$fail" -eq 0 ]; then
    echo "error: quadratic \`.contains()\` dedup guard — use katara_kb::dedup (DESIGN.md §5e):" >&2
  fi
  echo "  $hit" >&2
  fail=1
done < <(grep -nE 'if[[:space:]]+!.*\.contains\(' $FILES 2>/dev/null || true)

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "quadratic-dedup lint: OK (no contains()-based dedup in KB query paths)"
