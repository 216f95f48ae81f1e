// A fixed-size concurrent bitmap. Used for frontiers ("bitmap-directed
// frontier optimization", Section VI-C of the paper) and for page residency
// tracking in the unified-memory engine.

#ifndef HYTGRAPH_UTIL_ATOMIC_BITMAP_H_
#define HYTGRAPH_UTIL_ATOMIC_BITMAP_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace hytgraph {

class AtomicBitmap {
 public:
  AtomicBitmap() = default;
  /// Creates a bitmap of `size` bits, all clear.
  explicit AtomicBitmap(uint64_t size);

  /// Resizes and clears all bits.
  void Reset(uint64_t size);

  uint64_t size() const { return size_; }

  /// Atomically sets bit i. Returns true if this call changed it 0 -> 1.
  /// Reduces atomic contention by testing before the RMW (the paper's
  /// bitmap-directed frontier trick).
  bool TestAndSet(uint64_t i);

  /// Atomically clears bit i.
  void Clear(uint64_t i);

  /// Atomically clears bit i. Returns true if this call changed it 1 -> 0
  /// (the mirror of TestAndSet — callers maintaining an external population
  /// count need to know whether the bit was actually set).
  bool TestAndClear(uint64_t i);

  bool Test(uint64_t i) const;

  /// Atomically ORs `bits` into word w, whose bit i is bitmap index
  /// w * kBitsPerWord + i; no set bit may lie at or beyond size(). Returns
  /// the word's value before the OR, so `bits & ~old` are the bits this
  /// call set.
  uint64_t FetchOrWord(uint64_t w, uint64_t bits);

  /// Clears all bits (not thread safe vs concurrent setters).
  void ClearAll();

  /// Population count over the whole bitmap (not synchronized; call after
  /// the producing phase has completed).
  uint64_t Count() const;

  /// Popcount over bit range [begin, end).
  uint64_t CountRange(uint64_t begin, uint64_t end) const;

  /// Appends the indices of all set bits in [begin, end) to `out`.
  void CollectSetBits(uint64_t begin, uint64_t end,
                      std::vector<uint32_t>* out) const;

  /// The backing words, for dense whole-bitmap iteration (pull-mode kernels
  /// scan set bits without materializing an index list). Bit i lives at
  /// words()[i / kBitsPerWord] bit (i % kBitsPerWord); bits at size() and
  /// beyond in the last word are always clear.
  std::span<const std::atomic<uint64_t>> words() const {
    return {words_.data(), words_.size()};
  }

  static constexpr uint64_t kBitsPerWord = 64;

 private:

  uint64_t size_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_UTIL_ATOMIC_BITMAP_H_
