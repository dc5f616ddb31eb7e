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
#   * In the avx512 object, BarnesHutKernel<16>::step keeps the leaf's
#     running force sums in zmm registers (BarnesHutProgram::leaf_sum blends
#     the sum, not the addend), so it holds fewer than 16 scalar `vaddss`: a
#     sum split into lanes takes 16 per component.  When step is inlined,
#     the bound applies to each engine loop it lands in (main_loop and
#     masked_subtree, whose flush adds 3).  One of the two forms must exist.
#
# Usage: check_kernel_codegen.sh <objdump> <object>...
set -uo pipefail

# Prints "<functions matched> <instructions matching $2 in them>" over the
# disassembly on stdin, for the functions whose demangled name contains $1.
count_in() {
  awk -v name="$1" -v insn="$2" '
    /^[0-9a-f]+ <.*>:$/ { inside = index($0, name) > 0; found += inside; next }
    inside && $0 ~ insn { n++ }
    END { printf "%d %d\n", found, n }'
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
      count_in "float>::${fn}<tb::lockstep::BarnesHutKernel<" "lock cmpxchg")
    echo "$name: BarnesHutKernel ${fn}: ${found} function(s), ${cas} lock cmpxchg"
    if [ "$found" -eq 0 ]; then
      echo "$name: BlockedTraversal::${fn}<BarnesHutKernel> not found"
      status=1
    elif [ "$cas" -ne 0 ]; then
      status=1
    fi
  done
  if [[ $name == *avx512* ]]; then
    sites=("BarnesHutKernel<16>::step(")
    read -r found adds < <(printf '%s\n' "$asm" | count_in "${sites[0]}" '[ \t]vaddss[ \t]')
    if [ "$found" -eq 0 ]; then
      sites=("float>::main_loop<tb::lockstep::BarnesHutKernel<16>"
        "float>::masked_subtree<tb::lockstep::BarnesHutKernel<16>")
    fi
    for site in "${sites[@]}"; do
      read -r found adds < <(printf '%s\n' "$asm" | count_in "$site" '[ \t]vaddss[ \t]')
      echo "$name: ${site%(}: ${found} function(s), ${adds} vaddss"
      if [ "$found" -eq 0 ]; then
        echo "$name: ${site%(} not found"
        status=1
      elif [ "$adds" -ge 16 ]; then
        status=1
      fi
    done
  fi
done
exit $status
