// Per-shard bump arena for the fleet's population SoA arrays.
//
// Three properties matter here, none of which std::vector gives us:
//
//  * **First-touch NUMA placement.** The arena reserves address space but
//    never writes the pages itself; the first write comes from the owning
//    shard's worker thread during construction, so on a multi-socket host
//    the kernel places each shard's pages on the node where its worker
//    runs (a no-op on single-node hosts — the same code path, no special
//    casing). std::vector's value-initialization would touch every page
//    on the constructing thread instead.
//
//  * **Cache-line alignment.** Every allocation is 64-byte aligned so
//    SIMD loads in the session loop never split lines and neighbouring
//    shards never false-share.
//
//  * **Page-aligned blocks.** The block starts on a page boundary, so where
//    the arrays fall within pages depends on the arena's own layout, never
//    on what the heap held before. Placed by the heap, a 100k-user fleet's
//    shard arenas (about 64 KB each, below the mmap threshold) made a
//    period 15-35% slower after unrelated allocations moved them (4-vCPU
//    Xeon, Release).
//
// Allocations are freed all at once when the arena dies; individual
// deallocation is deliberately unsupported (shard arrays live exactly as
// long as their shard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "common/error.hpp"

namespace tdp {

class Arena {
 public:
  static constexpr std::size_t kAlignment = 64;
  static constexpr std::size_t kPageSize = 4096;

  Arena() = default;

  /// Reserve `bytes` of address space. The memory is left untouched so the
  /// caller's first write performs the NUMA first-touch.
  explicit Arena(std::size_t bytes) { reset(bytes); }

  Arena(Arena&& other) noexcept
      : base_(std::exchange(other.base_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        used_(std::exchange(other.used_, 0)) {}

  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      release();
      base_ = std::exchange(other.base_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      used_ = std::exchange(other.used_, 0);
    }
    return *this;
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { release(); }

  /// Discard all allocations and reserve a fresh block of `bytes`.
  void reset(std::size_t bytes) {
    release();
    if (bytes == 0) return;
    const std::size_t block =
        (round_up(bytes) + kPageSize - 1) / kPageSize * kPageSize;
    base_ = static_cast<std::byte*>(std::aligned_alloc(kPageSize, block));
    if (base_ == nullptr) throw std::bad_alloc();
    capacity_ = round_up(bytes);
    used_ = 0;
  }

  /// Uninitialized storage for `count` objects of T, 64-byte aligned.
  /// The caller must write every element before reading (and does, from
  /// the owning worker — that write is the first touch).
  template <typename T>
  T* allocate(std::size_t count) {
    static_assert(alignof(T) <= kAlignment, "over-aligned type");
    const std::size_t bytes = round_up(count * sizeof(T));
    TDP_REQUIRE(used_ + bytes <= capacity_, "arena capacity exceeded");
    T* out = reinterpret_cast<T*>(base_ + used_);
    used_ += bytes;
    return out;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }

  /// Bytes needed to hold `count` objects of T within a larger reservation.
  template <typename T>
  static std::size_t bytes_for(std::size_t count) {
    return round_up(count * sizeof(T));
  }

 private:
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
  }

  void release() {
    std::free(base_);
    base_ = nullptr;
    capacity_ = 0;
    used_ = 0;
  }

  std::byte* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace tdp
