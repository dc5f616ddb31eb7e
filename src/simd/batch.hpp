// Portable fixed-width SIMD batch type.
//
// `batch<T, W>` models W lanes of T stored in an addressable, aligned array.
// Arithmetic is written as plain fixed-trip-count loops, which GCC/Clang
// compile to single vector instructions at -O3; the operations a compiler
// cannot derive on its own — lane-mask extraction, masked blends, gathers,
// float division and square root — carry explicit intrinsics.  Lane masks
// are plain `uint32_t` bitmasks (bit i == lane i), which is what the
// streaming compaction in compact.hpp consumes.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#if defined(__SSE2__)
#include <immintrin.h>
#define TB_HAVE_SSE2 1
#else
#define TB_HAVE_SSE2 0
#endif

#if defined(__AVX2__)
#define TB_HAVE_AVX2 1
#else
#define TB_HAVE_AVX2 0
#endif

// The AVX-512 fast paths require the F+BW+VL trio — the same set the
// runtime probe (simd/isa.hpp) demands before selecting an avx512 dispatch
// table, so compile-time and runtime gates can never disagree.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#define TB_HAVE_AVX512 1
#else
#define TB_HAVE_AVX512 0
#endif

namespace tb::simd {

template <int W>
inline constexpr std::uint32_t mask_all = (W >= 32) ? 0xffffffffu : ((1u << W) - 1u);

namespace detail {
constexpr std::size_t batch_align(std::size_t bytes) { return bytes < 64 ? bytes : 64; }

#if TB_HAVE_AVX2
template <class B>
inline __m256i as_m256i(const B& b) {
  return std::bit_cast<__m256i>(b);
}
template <class B>
inline B from_m256i(__m256i v) {
  return std::bit_cast<B>(v);
}
#endif
#if TB_HAVE_AVX512
template <class B>
inline __m512i as_m512i(const B& b) {
  return std::bit_cast<__m512i>(b);
}
#endif
}  // namespace detail

template <class T, int W>
struct batch {
  static_assert(std::is_arithmetic_v<T>, "batch lanes must be arithmetic");
  static_assert(W > 0 && (W & (W - 1)) == 0, "batch width must be a power of two");

  using value_type = T;
  static constexpr int width = W;

  alignas(detail::batch_align(sizeof(T) * W)) T lane[W];

  // ---- constructors / fills -------------------------------------------------
  static batch broadcast(T x) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = x;
    return r;
  }
  static batch zero() { return broadcast(T{0}); }
  static batch iota(T first, T step = T{1}) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(first + static_cast<T>(i) * step);
    return r;
  }

  // ---- memory ---------------------------------------------------------------
  static batch load(const T* p) {  // p must be aligned to the batch alignment
    batch r;
    std::memcpy(r.lane, std::assume_aligned<detail::batch_align(sizeof(T) * W)>(p),
                sizeof(r.lane));
    return r;
  }
  static batch loadu(const T* p) {
    batch r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  void store(T* p) const {
    std::memcpy(std::assume_aligned<detail::batch_align(sizeof(T) * W)>(p), lane, sizeof(lane));
  }
  void storeu(T* p) const { std::memcpy(p, lane, sizeof(lane)); }

  T operator[](int i) const { return lane[i]; }
  void set(int i, T v) { lane[i] = v; }

  // ---- arithmetic -----------------------------------------------------------
  friend batch operator+(batch a, batch b) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] + b.lane[i]);
    return r;
  }
  friend batch operator-(batch a, batch b) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] - b.lane[i]);
    return r;
  }
  friend batch operator*(batch a, batch b) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] * b.lane[i]);
    return r;
  }
  friend batch operator-(batch a) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(-a.lane[i]);
    return r;
  }
  // Float division, correctly rounded like the scalar `/`, so every width
  // divides alike.  Explicit at W = 4, 8 and 16: GCC leaves part of the
  // plain loop scalar below W = 16.
  friend batch operator/(batch a, batch b) requires std::is_same_v<T, float> {
#if TB_HAVE_AVX512
    if constexpr (W == 16) {
      return std::bit_cast<batch>(
          _mm512_div_ps(std::bit_cast<__m512>(a), std::bit_cast<__m512>(b)));
    }
#endif
#if TB_HAVE_AVX2
    if constexpr (W == 8) {
      return std::bit_cast<batch>(
          _mm256_div_ps(std::bit_cast<__m256>(a), std::bit_cast<__m256>(b)));
    }
#endif
#if TB_HAVE_SSE2
    if constexpr (W == 4) {
      return std::bit_cast<batch>(_mm_div_ps(std::bit_cast<__m128>(a), std::bit_cast<__m128>(b)));
    }
#endif
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }
  batch& operator+=(batch o) { return *this = *this + o; }
  batch& operator-=(batch o) { return *this = *this - o; }
  batch& operator*=(batch o) { return *this = *this * o; }

  // ---- bitwise (integral lanes only) ---------------------------------------
  friend batch operator&(batch a, batch b) requires std::is_integral_v<T> {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] & b.lane[i]);
    return r;
  }
  friend batch operator|(batch a, batch b) requires std::is_integral_v<T> {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] | b.lane[i]);
    return r;
  }
  friend batch operator^(batch a, batch b) requires std::is_integral_v<T> {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] ^ b.lane[i]);
    return r;
  }
  friend batch operator~(batch a) requires std::is_integral_v<T> {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(~a.lane[i]);
    return r;
  }
  friend batch operator<<(batch a, int s) requires std::is_integral_v<T> {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] << s);
    return r;
  }
  friend batch operator>>(batch a, int s) requires std::is_integral_v<T> {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = static_cast<T>(a.lane[i] >> s);
    return r;
  }

  // ---- min / max ------------------------------------------------------------
  static batch min(batch a, batch b) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = std::min(a.lane[i], b.lane[i]);
    return r;
  }
  static batch max(batch a, batch b) {
    batch r;
    for (int i = 0; i < W; ++i) r.lane[i] = std::max(a.lane[i], b.lane[i]);
    return r;
  }
};

// ---- lane-mask comparisons --------------------------------------------------
// Return a bitmask with bit i set when the predicate holds in lane i.

namespace detail {

#if TB_HAVE_AVX2
// movemask over 32-bit lanes of an __m256i comparison result.
inline std::uint32_t movemask32(__m256i cmp) {
  return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
}
inline std::uint32_t movemask64(__m256i cmp) {
  return static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(cmp)));
}
#endif

template <class T, int W, class Pred>
inline std::uint32_t mask_loop(const batch<T, W>& a, const batch<T, W>& b, Pred&& p) {
  std::uint32_t m = 0;
  for (int i = 0; i < W; ++i) m |= static_cast<std::uint32_t>(p(a.lane[i], b.lane[i])) << i;
  return m;
}

}  // namespace detail

template <class T, int W>
inline std::uint32_t cmp_eq(const batch<T, W>& a, const batch<T, W>& b) {
#if TB_HAVE_AVX512
  if constexpr (std::is_integral_v<T> && sizeof(T) == 4 && W == 16) {
    return static_cast<std::uint32_t>(
        _mm512_cmpeq_epi32_mask(detail::as_m512i(a), detail::as_m512i(b)));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8 && W == 8) {
    return static_cast<std::uint32_t>(
        _mm512_cmpeq_epi64_mask(detail::as_m512i(a), detail::as_m512i(b)));
  }
#endif
#if TB_HAVE_AVX2
  if constexpr (std::is_integral_v<T> && sizeof(T) == 4 && W == 8) {
    return detail::movemask32(
        _mm256_cmpeq_epi32(detail::as_m256i(a), detail::as_m256i(b)));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8 && W == 4) {
    return detail::movemask64(
        _mm256_cmpeq_epi64(detail::as_m256i(a), detail::as_m256i(b)));
  }
#endif
  return detail::mask_loop(a, b, [](T x, T y) { return x == y; });
}

template <class T, int W>
inline std::uint32_t cmp_ne(const batch<T, W>& a, const batch<T, W>& b) {
  return cmp_eq(a, b) ^ mask_all<W>;
}

template <class T, int W>
inline std::uint32_t cmp_lt(const batch<T, W>& a, const batch<T, W>& b) {
#if TB_HAVE_AVX512
  if constexpr (std::is_same_v<T, std::int32_t> && W == 16) {
    return static_cast<std::uint32_t>(
        _mm512_cmpgt_epi32_mask(detail::as_m512i(b), detail::as_m512i(a)));
  } else if constexpr (std::is_same_v<T, float> && W == 16) {
    const auto av = std::bit_cast<__m512>(a);
    const auto bv = std::bit_cast<__m512>(b);
    return static_cast<std::uint32_t>(_mm512_cmp_ps_mask(av, bv, _CMP_LT_OQ));
  } else if constexpr (std::is_same_v<T, std::int64_t> && W == 8) {
    return static_cast<std::uint32_t>(
        _mm512_cmpgt_epi64_mask(detail::as_m512i(b), detail::as_m512i(a)));
  }
#endif
#if TB_HAVE_AVX2
  if constexpr (std::is_same_v<T, std::int32_t> && W == 8) {
    return detail::movemask32(
        _mm256_cmpgt_epi32(detail::as_m256i(b), detail::as_m256i(a)));
  } else if constexpr (std::is_same_v<T, float> && W == 8) {
    const auto av = std::bit_cast<__m256>(a);
    const auto bv = std::bit_cast<__m256>(b);
    return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_cmp_ps(av, bv, _CMP_LT_OQ)));
  } else if constexpr (std::is_same_v<T, std::int64_t> && W == 4) {
    return detail::movemask64(
        _mm256_cmpgt_epi64(detail::as_m256i(b), detail::as_m256i(a)));
  }
#endif
  return detail::mask_loop(a, b, [](T x, T y) { return x < y; });
}

template <class T, int W>
inline std::uint32_t cmp_gt(const batch<T, W>& a, const batch<T, W>& b) {
  return cmp_lt(b, a);
}
template <class T, int W>
inline std::uint32_t cmp_le(const batch<T, W>& a, const batch<T, W>& b) {
  return cmp_gt(a, b) ^ mask_all<W>;
}
template <class T, int W>
inline std::uint32_t cmp_ge(const batch<T, W>& a, const batch<T, W>& b) {
  return cmp_lt(a, b) ^ mask_all<W>;
}

// ---- blend ------------------------------------------------------------------
// Lane i of the result is `ifset` when mask bit i is 1, else `ifclear`.
template <class T, int W>
inline batch<T, W> select(std::uint32_t mask, const batch<T, W>& ifset,
                          const batch<T, W>& ifclear) {
#if TB_HAVE_AVX512
  if constexpr (sizeof(T) == 4 && W == 16) {
    return std::bit_cast<batch<T, W>>(_mm512_mask_mov_epi32(
        detail::as_m512i(ifclear), static_cast<__mmask16>(mask), detail::as_m512i(ifset)));
  }
#endif
  batch<T, W> r;
  for (int i = 0; i < W; ++i) r.lane[i] = (mask >> i) & 1u ? ifset.lane[i] : ifclear.lane[i];
  return r;
}

// ---- square root --------------------------------------------------------------
// IEEE square root per lane.  It is correctly rounded, so lane l equals
// std::sqrt(a[l]) bit for bit at every width; explicit at W = 4, 8 and 16,
// because GCC does not vectorize std::sqrt while it may set errno.
template <int W>
[[gnu::always_inline]] inline batch<float, W> sqrt(const batch<float, W>& a) {
#if TB_HAVE_AVX512
  // The all-ones-mask form, for the reason gather gives below.
  if constexpr (W == 16) {
    const auto v = std::bit_cast<__m512>(a);
    return std::bit_cast<batch<float, W>>(
        _mm512_mask_sqrt_ps(v, static_cast<__mmask16>(0xffff), v));
  }
#endif
#if TB_HAVE_AVX2
  if constexpr (W == 8) {
    return std::bit_cast<batch<float, W>>(_mm256_sqrt_ps(std::bit_cast<__m256>(a)));
  }
#endif
#if TB_HAVE_SSE2
  if constexpr (W == 4) {
    return std::bit_cast<batch<float, W>>(_mm_sqrt_ps(std::bit_cast<__m128>(a)));
  }
#endif
  batch<float, W> r;
  for (int i = 0; i < W; ++i) r.lane[i] = std::sqrt(a.lane[i]);
  return r;
}

// ---- gathers ----------------------------------------------------------------
// r.lane[i] = base[idx.lane[i]].  AVX2 provides hardware gathers for 4-byte
// elements with 4-byte indices; everything else uses the scalar loop.
template <class T, int W>
inline batch<T, W> gather(const T* base, const batch<std::int32_t, W>& idx) {
#if TB_HAVE_AVX512
  // The all-ones-mask gather forms: the plain _mm512_i32gather_* intrinsics
  // source their masked-off lanes from an "undefined" vector, which trips
  // -Wmaybe-uninitialized on GCC; with a full mask the source never shows
  // through, so zero is both quiet and equivalent.
  if constexpr (std::is_same_v<T, float> && W == 16) {
    return std::bit_cast<batch<T, W>>(_mm512_mask_i32gather_ps(
        _mm512_setzero_ps(), static_cast<__mmask16>(0xffff), detail::as_m512i(idx), base,
        sizeof(float)));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4 && W == 16) {
    return std::bit_cast<batch<T, W>>(_mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), static_cast<__mmask16>(0xffff), detail::as_m512i(idx), base,
        sizeof(T)));
  }
#endif
#if TB_HAVE_AVX2
  if constexpr (std::is_same_v<T, float> && W == 8) {
    return std::bit_cast<batch<T, W>>(
        _mm256_i32gather_ps(base, detail::as_m256i(idx), sizeof(float)));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4 && W == 8) {
    return std::bit_cast<batch<T, W>>(_mm256_i32gather_epi32(
        reinterpret_cast<const int*>(base), detail::as_m256i(idx), sizeof(T)));
  }
#endif
  batch<T, W> r;
  for (int i = 0; i < W; ++i) r.lane[i] = base[idx.lane[i]];
  return r;
}

// ---- horizontal reductions ---------------------------------------------------
template <class Acc, class T, int W>
inline Acc reduce_add_as(const batch<T, W>& v) {
  Acc acc{};
  for (int i = 0; i < W; ++i) acc += static_cast<Acc>(v.lane[i]);
  return acc;
}
template <class T, int W>
inline T reduce_add(const batch<T, W>& v) {
  return reduce_add_as<T>(v);
}
template <class T, int W>
inline T reduce_min(const batch<T, W>& v) {
  T m = v.lane[0];
  for (int i = 1; i < W; ++i) m = std::min(m, v.lane[i]);
  return m;
}
template <class T, int W>
inline T reduce_max(const batch<T, W>& v) {
  T m = v.lane[0];
  for (int i = 1; i < W; ++i) m = std::max(m, v.lane[i]);
  return m;
}

// Masked horizontal add: sums only the lanes whose mask bit is set.
template <class Acc, class T, int W>
inline Acc reduce_add_masked(std::uint32_t mask, const batch<T, W>& v) {
  Acc acc{};
  for (int i = 0; i < W; ++i)
    if ((mask >> i) & 1u) acc += static_cast<Acc>(v.lane[i]);
  return acc;
}
// Masked horizontal max: the largest of `init` and the lanes whose mask
// bit is set.
template <class Acc, class T, int W>
inline Acc reduce_max_masked(std::uint32_t mask, const batch<T, W>& v, Acc init) {
  if ((mask & mask_all<W>) == mask_all<W>) {
    return std::max(init, static_cast<Acc>(reduce_max(v)));
  }
  for (int i = 0; i < W; ++i)
    if ((mask >> i) & 1u) init = std::max(init, static_cast<Acc>(v.lane[i]));
  return init;
}

// ---- one lane ------------------------------------------------------------------
// The scalar spellings of the operations above, so a rule written once over
// V = float or V = batch<float, W> runs per task and per lane alike: a
// float is one lane, and its mask is bit 0.  `max` is forced inline: the
// kd-tree box distance calls it six times per node, and GCC left some of
// those calls out of line, returning W-lane batches through memory.
template <class V>
inline V splat(float x) {
  if constexpr (std::is_same_v<V, float>) {
    return x;
  } else {
    return V::broadcast(x);
  }
}
[[gnu::always_inline]] inline float max(float a, float b) { return std::max(a, b); }
[[gnu::always_inline]] inline float sqrt(float x) { return std::sqrt(x); }
template <class T, int W>
[[gnu::always_inline]] inline batch<T, W> max(const batch<T, W>& a, const batch<T, W>& b) {
  return batch<T, W>::max(a, b);
}
inline std::uint32_t cmp_lt(float a, float b) { return a < b ? 1u : 0u; }
inline std::uint32_t cmp_gt(float a, float b) { return cmp_lt(b, a); }
inline std::uint32_t cmp_le(float a, float b) { return a <= b ? 1u : 0u; }
inline std::uint32_t cmp_ge(float a, float b) { return cmp_lt(a, b) ^ 1u; }
[[gnu::always_inline]] inline float select(std::uint32_t mask, float ifset, float ifclear) {
  return (mask & 1u) != 0 ? ifset : ifclear;
}

// The integer spellings a task rule (apps/task_rule.hpp) needs: a field of
// W lanes is lanes<T, W> (T itself for one lane), an integer compare of one
// lane is bit 0, a scalar operand of a batch operation stands for its
// broadcast, and first_lane(v) reads lane 0, where a rule finds what every
// task of a block shares (its tree level).
template <class T, int W>
using lanes = std::conditional_t<W == 1, T, batch<T, W>>;

template <std::integral T>
[[gnu::always_inline]] inline std::uint32_t cmp_eq(T a, std::type_identity_t<T> b) {
  return a == b ? 1u : 0u;
}
template <std::integral T>
[[gnu::always_inline]] inline std::uint32_t cmp_lt(T a, std::type_identity_t<T> b) {
  return a < b ? 1u : 0u;
}
template <std::integral T>
[[gnu::always_inline]] inline std::uint32_t cmp_gt(T a, std::type_identity_t<T> b) {
  return cmp_lt(b, a);
}
template <std::integral T>
[[gnu::always_inline]] inline std::uint32_t cmp_ge(T a, std::type_identity_t<T> b) {
  return cmp_lt(a, b) ^ 1u;
}
template <class T, int W>
[[gnu::always_inline]] inline std::uint32_t cmp_eq(const batch<T, W>& a,
                                                   std::type_identity_t<T> b) {
  return cmp_eq(a, a.broadcast(b));
}
template <class T, int W>
[[gnu::always_inline]] inline std::uint32_t cmp_lt(const batch<T, W>& a,
                                                   std::type_identity_t<T> b) {
  return cmp_lt(a, a.broadcast(b));
}
template <class T, int W>
[[gnu::always_inline]] inline std::uint32_t cmp_gt(const batch<T, W>& a,
                                                   std::type_identity_t<T> b) {
  return cmp_gt(a, a.broadcast(b));
}
template <class T, int W>
[[gnu::always_inline]] inline std::uint32_t cmp_ge(const batch<T, W>& a,
                                                   std::type_identity_t<T> b) {
  return cmp_ge(a, a.broadcast(b));
}
template <class T, int W>
[[gnu::always_inline]] inline auto operator+(batch<T, W> a, std::type_identity_t<T> b) {
  return a + a.broadcast(b);
}
template <class T, int W>
[[gnu::always_inline]] inline auto operator-(batch<T, W> a, std::type_identity_t<T> b) {
  return a - a.broadcast(b);
}
template <class T, int W>
[[gnu::always_inline]] inline auto operator*(batch<T, W> a, std::type_identity_t<T> b) {
  return a * a.broadcast(b);
}
template <class T, int W>
[[gnu::always_inline]] inline auto operator&(batch<T, W> a, std::type_identity_t<T> b) {
  return a & a.broadcast(b);
}
template <class T, int W>
[[gnu::always_inline]] inline auto operator|(batch<T, W> a, std::type_identity_t<T> b) {
  return a | a.broadcast(b);
}
template <class T, int W>
[[gnu::always_inline]] inline auto operator^(batch<T, W> a, std::type_identity_t<T> b) {
  return a ^ a.broadcast(b);
}

template <std::integral T>
[[gnu::always_inline]] inline T first_lane(T x) {
  return x;
}
template <class T, int W>
[[gnu::always_inline]] inline T first_lane(const batch<T, W>& v) {
  return v[0];
}
template <class Acc, std::integral T>
[[gnu::always_inline]] inline Acc reduce_add_masked(std::uint32_t mask, T v) {
  return (mask & 1u) != 0 ? static_cast<Acc>(v) : Acc{};
}
template <class Acc, std::integral T>
[[gnu::always_inline]] inline Acc reduce_max_masked(std::uint32_t mask, T v, Acc init) {
  return (mask & 1u) != 0 ? std::max(init, static_cast<Acc>(v)) : init;
}

// f(i) per index: one float for an int32 index, lane l = f(idx[l]) for a
// batch of indices.
template <class V, class I, class F>
inline V per_lane(const I& idx, F&& f) {
  if constexpr (std::is_same_v<V, float>) {
    return f(idx);
  } else {
    V r;
    for (int l = 0; l < V::width; ++l) r.set(l, f(idx[l]));
    return r;
  }
}

// Natural vector width for a lane type on the compiled-for ISA: how many
// lanes of T fit in the widest available vector register (256-bit with AVX2,
// 128-bit baseline).  This is the Q the paper parameterizes schedulers with.
// It is deliberately a *compile-time* property of the current translation
// unit — the runtime-selected width of a one-binary-many-hosts build lives
// in the dispatch tables (simd/dispatch.hpp), whose per-ISA translation
// units instantiate the kernels at W ∈ {4, 8, 16} explicitly.
template <class T>
inline constexpr int natural_width = TB_HAVE_AVX2 ? static_cast<int>(32 / sizeof(T))
                                                  : static_cast<int>(16 / sizeof(T));

}  // namespace tb::simd
