// Structure-of-arrays task storage.
//
// A SoaBlock<Ts...> holds N rows, each a tuple of scalar fields, stored as
// one aligned column per field.  This is the AoS→SoA layout transformation
// the paper applies to task blocks so that a SIMD step can load one field of
// Q consecutive tasks with a single vector load (§6, Table 2's "SOA" rung).
//
// Capacity is managed manually (columns are raw aligned buffers sized to
// capacity), so vectorized appends may write a full vector of W lanes past
// the logical size and then bump it by popcount(mask).  Growth moves only
// the size() live rows into fresh columns and leaves the new rows
// unwritten: every writer stores a row before committing it (push_back,
// append_compact's slack, a writer through data<I>() before resize_up), and
// nothing reads a row past size().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "simd/aligned.hpp"
#include "simd/batch.hpp"
#include "simd/compact.hpp"

namespace tb::simd {

template <class... Ts>
class SoaBlock {
  static_assert(sizeof...(Ts) >= 1, "a block needs at least one field");

public:
  static constexpr std::size_t num_fields = sizeof...(Ts);
  using row_type = std::tuple<Ts...>;

  SoaBlock() = default;
  SoaBlock(const SoaBlock&) = default;
  SoaBlock& operator=(const SoaBlock&) = default;
  // Moves must zero the source's manual size/capacity bookkeeping (the
  // moved-from column vectors are empty).
  SoaBlock(SoaBlock&& o) noexcept
      : cols_(std::move(o.cols_)), size_(o.size_), capacity_(o.capacity_), level_(o.level_) {
    o.size_ = 0;
    o.capacity_ = 0;
  }
  SoaBlock& operator=(SoaBlock&& o) noexcept {
    cols_ = std::move(o.cols_);
    size_ = o.size_;
    capacity_ = o.capacity_;
    level_ = o.level_;
    o.size_ = 0;
    o.capacity_ = 0;
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  // Depth of this block's tasks in the computation tree.
  int level() const { return level_; }
  void set_level(int lvl) { level_ = lvl; }

  void clear() { size_ = 0; }

  void reserve(std::size_t cap) {
    if (cap > capacity_) grow(cap);
  }

  // Guarantee room for `n` more rows (vector appends need W slots of slack).
  void ensure_slack(std::size_t n) {
    if (size_ + n > capacity_) grow(size_ + n);
  }

  void push_back(Ts... vals) {
    ensure_slack(1);
    std::size_t i = size_++;
    set_row_impl(i, std::index_sequence_for<Ts...>{}, vals...);
  }

  row_type row(std::size_t i) const {
    assert(i < size_);
    return row_impl(i, std::index_sequence_for<Ts...>{});
  }

  void set_row(std::size_t i, Ts... vals) {
    assert(i < size_);
    set_row_impl(i, std::index_sequence_for<Ts...>{}, vals...);
  }

  template <std::size_t I>
  auto* data() {
    return std::get<I>(cols_).data();
  }
  template <std::size_t I>
  const auto* data() const {
    return std::get<I>(cols_).data();
  }

  // Concatenate all rows of `o` onto this block (stable order).
  void append(const SoaBlock& o) {
    ensure_slack(o.size_);
    append_impl(o, std::index_sequence_for<Ts...>{});
    size_ += o.size_;
  }

  // Move-append: steals the other block's buffers when this block is empty.
  void append(SoaBlock&& o) {
    if (empty() && o.capacity_ > capacity_) {
      const int lvl = level_;
      *this = std::move(o);
      level_ = lvl;
    } else {
      append(static_cast<const SoaBlock&>(o));
      o.clear();
    }
  }

  // Move up to `max_n` rows from the back of `src` to the back of this
  // block.  Returns the number of rows moved.  Used to refill an executing
  // block from a parked restart block (§6 "fill tb with tasks from rb").
  std::size_t take_from(SoaBlock& src, std::size_t max_n) {
    const std::size_t n = std::min(max_n, src.size_);
    if (n == 0) return 0;
    ensure_slack(n);
    take_impl(src, n, std::index_sequence_for<Ts...>{});
    size_ += n;
    src.size_ -= n;
    return n;
  }

  // Vectorized masked append: for each column, left-pack the lanes of the
  // corresponding batch whose mask bit is set and append them.
  template <int W>
  void append_compact(std::uint32_t mask, const batch<Ts, W>&... v) {
    mask &= mask_all<W>;
    if (mask == 0) return;
    ensure_slack(static_cast<std::size_t>(W));
    append_compact_impl<W>(mask, std::index_sequence_for<Ts...>{}, v...);
    size_ += static_cast<std::size_t>(std::popcount(mask));
  }

  void resize_down(std::size_t n) {
    assert(n <= size_);
    size_ = n;
  }

  // Commit rows [size(), n) that a writer stored through data<I>() after
  // reserving them.
  void resize_up(std::size_t n) {
    assert(size_ <= n && n <= capacity_);
    size_ = n;
  }

  void swap(SoaBlock& o) noexcept {
    cols_.swap(o.cols_);
    std::swap(size_, o.size_);
    std::swap(capacity_, o.capacity_);
    std::swap(level_, o.level_);
  }

private:
  void grow(std::size_t need) {
    std::size_t cap = capacity_ == 0 ? 64 : capacity_;
    while (cap < need) cap *= 2;
    std::apply([&](auto&... col) { ((col = widened(col, cap)), ...); }, cols_);
    capacity_ = cap;
  }

  // A column of `cap` unwritten rows holding col's live rows.
  template <class Col>
  Col widened(const Col& col, std::size_t cap) const {
    Col out(cap);
    std::copy_n(col.data(), size_, out.data());
    return out;
  }

  template <std::size_t... Is>
  row_type row_impl(std::size_t i, std::index_sequence<Is...>) const {
    return row_type{std::get<Is>(cols_)[i]...};
  }

  template <std::size_t... Is>
  void set_row_impl(std::size_t i, std::index_sequence<Is...>, Ts... vals) {
    ((std::get<Is>(cols_)[i] = vals), ...);
  }

  template <std::size_t... Is>
  void append_impl(const SoaBlock& o, std::index_sequence<Is...>) {
    ((std::copy_n(std::get<Is>(o.cols_).data(), o.size_, std::get<Is>(cols_).data() + size_)),
     ...);
  }

  template <std::size_t... Is>
  void take_impl(SoaBlock& src, std::size_t n, std::index_sequence<Is...>) {
    ((std::copy_n(std::get<Is>(src.cols_).data() + (src.size_ - n), n,
                  std::get<Is>(cols_).data() + size_)),
     ...);
  }

  template <int W, std::size_t... Is>
  void append_compact_impl(std::uint32_t mask, std::index_sequence<Is...>,
                           const batch<Ts, W>&... v) {
    ((compact_store(std::get<Is>(cols_).data() + size_, mask, v)), ...);
  }

  std::tuple<std::vector<Ts, UninitAlignedAllocator<Ts>>...> cols_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  int level_ = 0;
};

}  // namespace tb::simd
