// Cache-line-aligned allocation utilities.
//
// Task blocks are streamed through SIMD lanes; keeping every column of a
// structure-of-arrays block 64-byte aligned lets block kernels use aligned
// vector loads/stores and avoids false sharing between per-worker blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace tb::simd {

inline constexpr std::size_t kCacheLineBytes = 64;

// Minimal C++17-style allocator that over-aligns every allocation.
template <class T, std::size_t Align = kCacheLineBytes>
class AlignedAllocator {
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of two");
  static_assert(Align >= alignof(T), "alignment must not be weaker than alignof(T)");

public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) { return false; }
};

template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

// The same allocator, except that an element made without a value is
// default-initialized: a vector of arithmetic T grows without writing its
// new elements.  For storage whose writer stores every element before it
// is read (SoaBlock's columns, soa.hpp).
template <class T>
struct UninitAlignedAllocator : AlignedAllocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAlignedAllocator<U>;
  };

  UninitAlignedAllocator() noexcept = default;
  template <class U>
  UninitAlignedAllocator(const UninitAlignedAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace tb::simd
