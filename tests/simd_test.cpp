// Unit and property tests for the SIMD substrate: batch arithmetic and
// masks vs scalar reference, streaming compaction, SoA blocks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <vector>

#include "simd/batch.hpp"
#include "simd/compact.hpp"
#include "simd/soa.hpp"
#include "tests/support/rng.hpp"

namespace {

using tb::simd::batch;
using tb::simd::SoaBlock;

template <class T, int W>
void expect_lanes(const batch<T, W>& b, const std::vector<T>& expected) {
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(W));
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ(b[i], expected[static_cast<std::size_t>(i)]) << "lane " << i;
  }
}

TEST(Batch, BroadcastAndIota) {
  auto b = batch<std::int32_t, 8>::broadcast(7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b[i], 7);
  auto io = batch<std::int32_t, 8>::iota(3, 2);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(io[i], 3 + 2 * i);
}

TEST(Batch, LoadStoreRoundTrip) {
  alignas(64) std::int32_t src[8] = {1, -2, 3, -4, 5, -6, 7, -8};
  auto b = batch<std::int32_t, 8>::load(src);
  alignas(64) std::int32_t dst[8] = {};
  b.store(dst);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], src[i]);
}

TEST(Batch, UnalignedLoad) {
  std::vector<std::int32_t> data(32);
  std::iota(data.begin(), data.end(), 0);
  auto b = batch<std::int32_t, 8>::loadu(data.data() + 3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b[i], 3 + i);
}

// Property: every arithmetic/bitwise op matches the scalar computation,
// for the lane types and widths the apps use.
template <class T, int W>
void arithmetic_matches_scalar(std::uint64_t salt) {
  auto rng = tbtest::golden_rng(salt);
  for (int round = 0; round < 50; ++round) {
    batch<T, W> a, b;
    for (int i = 0; i < W; ++i) {
      a.set(i, static_cast<T>(static_cast<std::int64_t>(rng() % 2000) - 1000));
      b.set(i, static_cast<T>(static_cast<std::int64_t>(rng() % 2000) - 1000));
    }
    const auto sum = a + b;
    const auto diff = a - b;
    const auto prod = a * b;
    const auto mn = batch<T, W>::min(a, b);
    const auto mx = batch<T, W>::max(a, b);
    for (int i = 0; i < W; ++i) {
      EXPECT_EQ(sum[i], static_cast<T>(a[i] + b[i]));
      EXPECT_EQ(diff[i], static_cast<T>(a[i] - b[i]));
      EXPECT_EQ(prod[i], static_cast<T>(a[i] * b[i]));
      EXPECT_EQ(mn[i], std::min(a[i], b[i]));
      EXPECT_EQ(mx[i], std::max(a[i], b[i]));
    }
  }
}

TEST(Batch, ArithmeticI32x8) { arithmetic_matches_scalar<std::int32_t, 8>(1); }
TEST(Batch, ArithmeticI32x4) { arithmetic_matches_scalar<std::int32_t, 4>(2); }
TEST(Batch, ArithmeticI64x4) { arithmetic_matches_scalar<std::int64_t, 4>(3); }
TEST(Batch, ArithmeticF32x8) { arithmetic_matches_scalar<float, 8>(4); }
TEST(Batch, ArithmeticI16x16) { arithmetic_matches_scalar<std::int16_t, 16>(5); }

template <class T, int W>
void masks_match_scalar(std::uint64_t salt) {
  auto rng = tbtest::golden_rng(salt);
  for (int round = 0; round < 100; ++round) {
    batch<T, W> a, b;
    for (int i = 0; i < W; ++i) {
      a.set(i, static_cast<T>(static_cast<std::int64_t>(rng() % 8) - 4));
      b.set(i, static_cast<T>(static_cast<std::int64_t>(rng() % 8) - 4));
    }
    std::uint32_t lt = 0, le = 0, gt = 0, ge = 0, eq = 0, ne = 0;
    for (int i = 0; i < W; ++i) {
      lt |= static_cast<std::uint32_t>(a[i] < b[i]) << i;
      le |= static_cast<std::uint32_t>(a[i] <= b[i]) << i;
      gt |= static_cast<std::uint32_t>(a[i] > b[i]) << i;
      ge |= static_cast<std::uint32_t>(a[i] >= b[i]) << i;
      eq |= static_cast<std::uint32_t>(a[i] == b[i]) << i;
      ne |= static_cast<std::uint32_t>(a[i] != b[i]) << i;
    }
    EXPECT_EQ(tb::simd::cmp_lt(a, b), lt);
    EXPECT_EQ(tb::simd::cmp_le(a, b), le);
    EXPECT_EQ(tb::simd::cmp_gt(a, b), gt);
    EXPECT_EQ(tb::simd::cmp_ge(a, b), ge);
    EXPECT_EQ(tb::simd::cmp_eq(a, b), eq);
    EXPECT_EQ(tb::simd::cmp_ne(a, b), ne);
  }
}

TEST(Batch, MasksI32x8) { masks_match_scalar<std::int32_t, 8>(11); }
TEST(Batch, MasksI64x4) { masks_match_scalar<std::int64_t, 4>(12); }
TEST(Batch, MasksF32x8) { masks_match_scalar<float, 8>(13); }
TEST(Batch, MasksU32x8) { masks_match_scalar<std::uint32_t, 8>(14); }
TEST(Batch, MasksI32x4) { masks_match_scalar<std::int32_t, 4>(15); }

// Property: simd::sqrt and float `/` are the IEEE operations lane by lane —
// bit-equal to std::sqrt and the scalar `/` — at every dispatch width, over
// random positives and the special values (NaN results only as NaN).
template <int W>
void sqrt_and_divide_match_scalar(std::uint64_t salt) {
  using B = batch<float, W>;
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            std::bit_cast<float>(0x007fffffu),  // largest denormal
                            std::numeric_limits<float>::min(),
                            1.0f,
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> values(std::begin(specials), std::end(specials));
  auto rng = tbtest::golden_rng(salt);
  while (values.size() < 64 * W) {
    // Any finite positive bit pattern: denormals and normals of every scale.
    const auto bits = static_cast<std::uint32_t>(rng() % 0x7f800000u);
    values.push_back(std::bit_cast<float>(bits));
  }
  const auto expect_same = [](float got, float want, float a, float b) {
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << a << " " << b;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got), std::bit_cast<std::uint32_t>(want))
          << a << " " << b << ": " << got << " vs " << want;
    }
  };
  const std::size_t n = values.size();
  for (std::size_t round = 0; round < n; ++round) {
    B a, b;
    for (int i = 0; i < W; ++i) {
      // Lane i pairs value (round + i) with every other value over the rounds.
      a.set(i, values[(round + static_cast<std::size_t>(i)) % n]);
      b.set(i, values[(round * 7 + static_cast<std::size_t>(i) * 13) % n]);
    }
    const B root = tb::simd::sqrt(a);
    const B quot = a / b;
    for (int i = 0; i < W; ++i) {
      expect_same(root[i], std::sqrt(a[i]), a[i], a[i]);
      expect_same(tb::simd::sqrt(a[i]), std::sqrt(a[i]), a[i], a[i]);
      expect_same(quot[i], a[i] / b[i], a[i], b[i]);
    }
  }
}

TEST(Batch, SqrtAndDivideF32x4) { sqrt_and_divide_match_scalar<4>(21); }
TEST(Batch, SqrtAndDivideF32x8) { sqrt_and_divide_match_scalar<8>(22); }
TEST(Batch, SqrtAndDivideF32x16) { sqrt_and_divide_match_scalar<16>(23); }

TEST(Batch, Select) {
  auto a = batch<std::int32_t, 8>::iota(0);
  auto b = batch<std::int32_t, 8>::iota(100);
  auto sel = tb::simd::select(0b10101010u, a, b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(sel[i], (i % 2 == 1) ? i : 100 + i);
}

TEST(Batch, GatherF32) {
  std::vector<float> table(64);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = static_cast<float>(i) * 1.5f;
  batch<std::int32_t, 8> idx;
  const int indices[8] = {5, 0, 63, 31, 7, 7, 12, 40};
  for (int i = 0; i < 8; ++i) idx.set(i, indices[i]);
  auto g = tb::simd::gather(table.data(), idx);
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(g[i], table[static_cast<std::size_t>(indices[i])]);
}

TEST(Batch, GatherI32) {
  std::vector<std::int32_t> table(128);
  std::iota(table.begin(), table.end(), -64);
  batch<std::int32_t, 8> idx = batch<std::int32_t, 8>::iota(3, 15);
  auto g = tb::simd::gather(table.data(), idx);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(g[i], table[static_cast<std::size_t>(3 + 15 * i)]);
}

TEST(Batch, Reductions) {
  auto v = batch<std::int32_t, 8>::iota(1);  // 1..8
  EXPECT_EQ(tb::simd::reduce_add(v), 36);
  EXPECT_EQ(tb::simd::reduce_min(v), 1);
  EXPECT_EQ(tb::simd::reduce_max(v), 8);
  EXPECT_EQ((tb::simd::reduce_add_masked<std::uint64_t>(0b00000101u, v)), 1u + 3u);
  EXPECT_EQ((tb::simd::reduce_add_as<std::uint64_t>(v)), 36u);
}

// ---- compaction ---------------------------------------------------------------

// Property: compact_store is stable, writes exactly popcount lanes, and
// preserves the selected values — for every possible 8-lane mask.
TEST(Compact, AllMasksI32x8) {
  auto v = batch<std::int32_t, 8>::iota(10);
  for (std::uint32_t mask = 0; mask < 256; ++mask) {
    std::int32_t dst[9];
    dst[8] = -999;  // canary beyond the W-slot slack
    const int n = tb::simd::compact_store(dst, mask, v);
    ASSERT_EQ(n, std::popcount(mask)) << "mask=" << mask;
    int k = 0;
    for (int i = 0; i < 8; ++i) {
      if ((mask >> i) & 1u) {
        EXPECT_EQ(dst[k], 10 + i) << "mask=" << mask << " pos=" << k;
        ++k;
      }
    }
    EXPECT_EQ(dst[8], -999);
  }
}

TEST(Compact, AllMasksU64x4) {
  batch<std::uint64_t, 4> v;
  for (int i = 0; i < 4; ++i) v.set(i, 0x1000000000000000ull + static_cast<std::uint64_t>(i));
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    std::uint64_t dst[4] = {};
    const int n = tb::simd::compact_store(dst, mask, v);
    ASSERT_EQ(n, std::popcount(mask));
    int k = 0;
    for (int i = 0; i < 4; ++i) {
      if ((mask >> i) & 1u) {
        EXPECT_EQ(dst[k], v[i]);
        ++k;
      }
    }
  }
}

TEST(Compact, AllMasksF32x8) {
  auto v = batch<float, 8>::iota(0.5f, 0.25f);
  for (std::uint32_t mask = 0; mask < 256; ++mask) {
    float dst[8] = {};
    const int n = tb::simd::compact_store(dst, mask, v);
    ASSERT_EQ(n, std::popcount(mask));
    int k = 0;
    for (int i = 0; i < 8; ++i) {
      if ((mask >> i) & 1u) {
        EXPECT_FLOAT_EQ(dst[k++], v[i]);
      }
    }
  }
}

// Scalar fallback path (lane type with no AVX2 specialization).
TEST(Compact, FallbackI16x8) {
  auto v = batch<std::int16_t, 8>::iota(static_cast<std::int16_t>(-3));
  for (std::uint32_t mask = 0; mask < 256; ++mask) {
    std::int16_t dst[8] = {};
    const int n = tb::simd::compact_store(dst, mask, v);
    ASSERT_EQ(n, std::popcount(mask));
    int k = 0;
    for (int i = 0; i < 8; ++i) {
      if ((mask >> i) & 1u) {
        EXPECT_EQ(dst[k++], v[i]);
      }
    }
  }
}

// Masks above the width must be ignored.
TEST(Compact, MaskClampedToWidth) {
  auto v = batch<std::int32_t, 4>::iota(0);
  std::int32_t dst[4] = {-1, -1, -1, -1};
  const int n = tb::simd::compact_store(dst, 0xFFFFFFFFu, v);
  EXPECT_EQ(n, 4);
}

// ---- compaction edge cases ------------------------------------------------------
//
// The all-mask property sweeps above subsume these numerically, but the
// boundary masks are the cases the kernels hit constantly (a step where no
// lane spawns / every lane spawns), so pin them down by name.

TEST(CompactEdge, AllDropMaskWritesNothingMeaningful) {
  // mask = 0: zero survivors.  The contract still allows a full-vector
  // store into the W-slot slack, but the returned count must be 0 for both
  // the AVX2 table path and the scalar fallback.
  const auto v32 = batch<std::int32_t, 8>::iota(100);
  std::int32_t dst32[8] = {};
  EXPECT_EQ(tb::simd::compact_store(dst32, 0u, v32), 0);

  batch<std::uint64_t, 4> v64;
  for (int i = 0; i < 4; ++i) v64.set(i, 7ull + static_cast<std::uint64_t>(i));
  std::uint64_t dst64[4] = {};
  EXPECT_EQ(tb::simd::compact_store(dst64, 0u, v64), 0);
}

TEST(CompactEdge, AllKeepMaskIsIdentityCopy) {
  const auto v = batch<std::int32_t, 8>::iota(-4);
  std::int32_t dst[8] = {};
  EXPECT_EQ(tb::simd::compact_store(dst, 0xFFu, v), 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], v[i]) << "lane " << i;

  batch<std::uint64_t, 4> w;
  for (int i = 0; i < 4; ++i) w.set(i, 1ull << (60 - i));
  std::uint64_t dst64[4] = {};
  EXPECT_EQ(tb::simd::compact_store(dst64, 0xFu, w), 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dst64[i], w[i]) << "lane " << i;
}

TEST(CompactEdge, SingleSurvivorLandsInSlotZero) {
  // Exactly one lane kept, from every position: the survivor must land at
  // dst[0] regardless of its source lane.
  const auto v = batch<std::int32_t, 8>::iota(50);
  for (int i = 0; i < 8; ++i) {
    std::int32_t dst[8] = {};
    EXPECT_EQ(tb::simd::compact_store(dst, 1u << i, v), 1) << "lane " << i;
    EXPECT_EQ(dst[0], 50 + i) << "lane " << i;
  }
}

// ---- SoaBlock -----------------------------------------------------------------

TEST(SoaBlock, PushRowRoundTrip) {
  SoaBlock<std::int32_t, float> blk;
  blk.set_level(3);
  blk.push_back(1, 1.5f);
  blk.push_back(2, 2.5f);
  ASSERT_EQ(blk.size(), 2u);
  EXPECT_EQ(blk.level(), 3);
  EXPECT_EQ(blk.row(0), (std::tuple<std::int32_t, float>{1, 1.5f}));
  EXPECT_EQ(blk.row(1), (std::tuple<std::int32_t, float>{2, 2.5f}));
}

TEST(SoaBlock, GrowthPreservesData) {
  SoaBlock<std::int32_t> blk;
  for (std::int32_t i = 0; i < 1000; ++i) blk.push_back(i);
  ASSERT_EQ(blk.size(), 1000u);
  for (std::int32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(std::get<0>(blk.row(static_cast<std::size_t>(i))), i);
  }
}

TEST(SoaBlock, AppendCopy) {
  SoaBlock<std::int32_t> a, b;
  a.push_back(1);
  a.push_back(2);
  b.push_back(10);
  a.append(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(std::get<0>(a.row(2)), 10);
  EXPECT_EQ(b.size(), 1u);  // source untouched
}

TEST(SoaBlock, AppendMoveIntoEmptyStealsBuffer) {
  SoaBlock<std::int32_t> a, b;
  b.push_back(10);
  b.push_back(20);
  a.set_level(5);
  a.append(std::move(b));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.level(), 5);  // level preserved on steal
  EXPECT_EQ(b.size(), 0u);
}

TEST(SoaBlock, MoveResetsSource) {
  SoaBlock<std::int32_t> a;
  a.push_back(1);
  SoaBlock<std::int32_t> b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.capacity(), 0u);
  a.push_back(7);  // moved-from block is reusable
  EXPECT_EQ(std::get<0>(a.row(0)), 7);
}

TEST(SoaBlock, TakeFromMovesTail) {
  SoaBlock<std::int32_t> src, dst;
  for (std::int32_t i = 0; i < 10; ++i) src.push_back(i);
  const std::size_t moved = dst.take_from(src, 4);
  EXPECT_EQ(moved, 4u);
  EXPECT_EQ(src.size(), 6u);
  ASSERT_EQ(dst.size(), 4u);
  // The tail 6,7,8,9 moved over.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(std::get<0>(dst.row(static_cast<std::size_t>(i))), 6 + i);
}

TEST(SoaBlock, TakeFromClampsToAvailable) {
  SoaBlock<std::int32_t> src, dst;
  src.push_back(1);
  EXPECT_EQ(dst.take_from(src, 100), 1u);
  EXPECT_TRUE(src.empty());
}

TEST(SoaBlock, AppendCompactMultiColumn) {
  SoaBlock<std::int32_t, std::int32_t> blk;
  auto a = batch<std::int32_t, 8>::iota(0);
  auto b = batch<std::int32_t, 8>::iota(100);
  blk.append_compact<8>(0b11001001u, a, b);
  ASSERT_EQ(blk.size(), 4u);
  const int kept[4] = {0, 3, 6, 7};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(blk.row(static_cast<std::size_t>(i)),
              (std::tuple<std::int32_t, std::int32_t>{kept[i], 100 + kept[i]}));
  }
}

TEST(SoaBlock, AppendCompactZeroMaskIsNoop) {
  SoaBlock<std::int32_t> blk;
  blk.append_compact<8>(0u, batch<std::int32_t, 8>::iota(0));
  EXPECT_TRUE(blk.empty());
}

// Property: a long randomized sequence of push/append_compact calls keeps
// columns consistent with a scalar model.
TEST(SoaBlock, RandomizedAgainstModel) {
  auto rng = tbtest::golden_rng(99);
  SoaBlock<std::int32_t, std::int32_t> blk;
  std::vector<std::pair<std::int32_t, std::int32_t>> model;
  for (int round = 0; round < 500; ++round) {
    if (rng.below(2) == 0) {
      const auto x = static_cast<std::int32_t>(rng.below(1000));
      blk.push_back(x, x * 2);
      model.emplace_back(x, x * 2);
    } else {
      batch<std::int32_t, 8> a, b;
      for (int i = 0; i < 8; ++i) {
        const auto x = static_cast<std::int32_t>(rng.below(1000));
        a.set(i, x);
        b.set(i, x + 1);
      }
      const std::uint32_t mask = rng.below(256);
      blk.append_compact<8>(mask, a, b);
      for (int i = 0; i < 8; ++i) {
        if ((mask >> i) & 1u) model.emplace_back(a[i], b[i]);
      }
    }
  }
  ASSERT_EQ(blk.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(blk.row(i),
              (std::tuple<std::int32_t, std::int32_t>{model[i].first, model[i].second}));
  }
}

TEST(NaturalWidth, MatchesIsa) {
#if TB_HAVE_AVX2
  EXPECT_EQ(tb::simd::natural_width<std::int32_t>, 8);
  EXPECT_EQ(tb::simd::natural_width<std::uint64_t>, 4);
  EXPECT_EQ(tb::simd::natural_width<std::int16_t>, 16);
#else
  EXPECT_EQ(tb::simd::natural_width<std::int32_t>, 4);
#endif
}

}  // namespace
