#!/usr/bin/env bash
# Kernel codegen guard (the CTest tools.kernel_codegen) over the
# runtime-dispatch kernel objects:
#
#   * They compute at the width they dispatch, so none may hold a scalar
#     square root (sqrtss / vsqrtss) — the Barnes-Hut force law runs as one
#     vector sqrt per step (simd::sqrt in simd/batch.hpp).  Scalar divides
#     stay legitimate: the opening threshold (root_d2) divides once per run.
#   * The blocked engine's Barnes-Hut loops — BlockedTraversal<W, float>::
#     main_loop and ::masked_subtree on BarnesHutKernel<W> — flush into the
#     kernel copy's plain per-body sums, so neither may hold a `lock cmpxchg`
#     (a float atomic add); the atomic adds belong to the once-per-run
#     hand-over (BarnesHutKernel::finish).  Both functions must exist, so an
#     inlining change cannot make this check vacuous.
#
# Usage: check_kernel_codegen.sh <objdump> <object>...
set -uo pipefail

# Prints "<functions matched> <lock cmpxchg in them>" over the disassembly on
# stdin, for the functions whose demangled name contains $1.
count_lock_cas() {
  awk -v name="$1" '
    /^[0-9a-f]+ <.*>:$/ { inside = index($0, name) > 0; found += inside; next }
    inside && /lock cmpxchg/ { cas++ }
    END { printf "%d %d\n", found, cas }'
}

objdump=$1
shift
status=0
for obj in "$@"; do
  if ! asm=$("$objdump" -d -C --no-show-raw-insn "$obj"); then
    echo "cannot disassemble $obj"
    status=1
    continue
  fi
  name=$(basename "$obj")
  scalar=$(printf '%s\n' "$asm" | grep -cE '\s(v)?sqrtss\s')
  vector=$(printf '%s\n' "$asm" | grep -cE '\s(v)?sqrtps\s')
  echo "$name: ${scalar} scalar sqrt, ${vector} vector sqrt"
  if [ "$scalar" -ne 0 ]; then
    printf '%s\n' "$asm" | grep -E '\s(v)?sqrtss\s' | head -n 5
    status=1
  fi
  for fn in main_loop masked_subtree; do
    read -r found cas < <(printf '%s\n' "$asm" |
      count_lock_cas "float>::${fn}<tb::lockstep::BarnesHutKernel<")
    echo "$name: BarnesHutKernel ${fn}: ${found} function(s), ${cas} lock cmpxchg"
    if [ "$found" -eq 0 ]; then
      echo "$name: BlockedTraversal::${fn}<BarnesHutKernel> not found"
      status=1
    elif [ "$cas" -ne 0 ]; then
      status=1
    fi
  done
done
exit $status
