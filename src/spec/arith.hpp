// Arithmetic semantics of the specification language.
//
// Spec-language integers are 64-bit two's-complement with wrap-around
// overflow, and division/modulo are *total*: x/0 == x%0 == 0 and
// INT64_MIN / -1 wraps to INT64_MIN.  Totality is what lets blocked
// execution evaluate every lane of a task block eagerly under a mask (the
// paper's §6 masked-SIMD discipline) without lane-dependent traps, and
// wrap-around keeps the AST interpreter, the constant folder, the bytecode
// interpreter, the JIT and the block VM bit-identical on any input —
// including the random expressions the property tests generate.
#pragma once

#include <cstdint>
#include <limits>

namespace tb::spec {

inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_neg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}
inline std::int64_t wrap_shl(std::int64_t a, int s) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                   << static_cast<unsigned>(s));
}
inline std::int64_t div_total(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return a;
  return a / b;
}
inline std::int64_t mod_total(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return 0;
  return a % b;
}

}  // namespace tb::spec
