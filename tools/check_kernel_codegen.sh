#!/usr/bin/env bash
# Kernel codegen guard (the CTest tools.kernel_codegen): the runtime-dispatch
# kernel objects compute at the width they dispatch, so none may hold a
# scalar square root (sqrtss / vsqrtss) — the Barnes-Hut force law runs as
# one vector sqrt per step (simd::sqrt in simd/batch.hpp).  Scalar divides
# stay legitimate: the opening threshold (root_d2) divides once per run.
#
# Usage: check_kernel_codegen.sh <objdump> <object>...
set -uo pipefail

objdump=$1
shift
status=0
for obj in "$@"; do
  if ! asm=$("$objdump" -d --no-show-raw-insn "$obj"); then
    echo "cannot disassemble $obj"
    status=1
    continue
  fi
  scalar=$(printf '%s\n' "$asm" | grep -cE '\s(v)?sqrtss\s')
  vector=$(printf '%s\n' "$asm" | grep -cE '\s(v)?sqrtps\s')
  echo "$(basename "$obj"): ${scalar} scalar sqrt, ${vector} vector sqrt"
  if [ "$scalar" -ne 0 ]; then
    printf '%s\n' "$asm" | grep -E '\s(v)?sqrtss\s' | head -n 5
    status=1
  fi
done
exit $status
