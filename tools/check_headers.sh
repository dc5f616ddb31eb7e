#!/usr/bin/env bash
# Header self-containment gate (the CTest tools.headers_self_contained):
# compiles every src/**/*.hpp as the first and only include of its own
# translation unit (-fsyntax-only), so a header that builds only because an
# earlier include dragged in what it uses fails here, not in the next
# consumer that happens to include it first.
#
# Usage: check_headers.sh <src-dir> <c++ compiler> [compiler flags...]
# CTest passes the taskbatch target's compiler, include roots, definitions,
# compile options and language standard.
set -uo pipefail

if [ "${1:-}" = "--one" ]; then
  header=$2
  shift 2
  if ! out=$(printf '#include "%s"\n' "$header" | "$@" -fsyntax-only -x c++ - 2>&1); then
    printf 'NOT SELF-CONTAINED: %s\n%s\n' "$header" "$out"
    exit 1
  fi
  exit 0
fi

src=$1
shift
headers=$(find "$src" -name '*.hpp' | sort)
count=$(printf '%s\n' "$headers" | wc -l)
# One compiler per header, four at a time; xargs exits non-zero if any failed.
if printf '%s\n' "$headers" | xargs -P 4 -I '{}' bash "$0" --one '{}' "$@"; then
  echo "all ${count} headers under ${src} compile on their own"
else
  exit 1
fi
