#!/usr/bin/env bash
# Docs health gate (the ci.yml "docs" job, and the CTest tools.check_docs):
#   1. every relative markdown link in README.md and docs/*.md resolves;
#   2. every src/ subdirectory is mentioned in docs/ARCHITECTURE.md;
#   3. every backticked file name with a source extension in README.md and
#      docs/*.md names a file in the tree.
# Keeping this mechanical is what stops the architecture docs from rotting
# as subsystems are added.
set -euo pipefail
cd "$(dirname "$0")/.."
status=0

# 1. Relative link targets: ](path) and ](path#anchor); external schemes skip.
for doc in README.md docs/*.md; do
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue  # pure in-page anchor
    if [ ! -e "$(dirname "$doc")/$path" ]; then
      echo "BROKEN LINK in $doc: $target"
      status=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\((.*)\)$/\1/')
done

# 2. Every src/ subsystem must appear (as "name/") in the architecture doc.
for dir in src/*/; do
  name="$(basename "$dir")"
  if ! grep -q "${name}/" docs/ARCHITECTURE.md; then
    echo "docs/ARCHITECTURE.md does not mention src subsystem: ${name}"
    status=1
  fi
done

# 3. A backticked name matches as a path suffix: `driver.hpp`,
#    `core/driver.hpp` and `src/core/driver.hpp` all name src/core/driver.hpp.
files="$(find . -type d \( -name .git -o -name 'build*' -o -name .bench_build \) -prune \
  -o -type f -print)"
for doc in README.md docs/*.md; do
  while IFS= read -r name; do
    if ! grep -qE "/${name//./\\.}\$" <<<"$files"; then
      echo "MISSING FILE named in $doc: $name"
      status=1
    fi
  done < <(grep -oE '`[A-Za-z0-9_./-]+\.(hpp|cpp|ipp|sh|py|yml)`' "$doc" | tr -d '`' | sort -u)
done

[ "$status" -eq 0 ] && echo "docs OK"
exit "$status"
