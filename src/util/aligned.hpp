// Cache-line-aligned vector storage. The CSR hot loops (flood kernel, the
// overlay's ball BFS passes over H) stream the adjacency arrays; aligning
// the allocations to 64-byte lines keeps the rows from straddling an extra
// line per access and gives the vectorizer an honest alignment story.
// The allocator is stateless, so aligned_vector moves/swaps exactly like
// std::vector — the overlay's G build and the incremental snapshot engine
// hand their assembled CSR arrays to Graph::from_csr without a copy.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace byz::util {

inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;
  // The non-type Align parameter defeats allocator_traits' default rebind
  // (it only rewrites type-only template argument lists), so spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Align});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

/// std::vector with 64-byte-aligned storage (drop-in for the CSR arrays).
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace byz::util
