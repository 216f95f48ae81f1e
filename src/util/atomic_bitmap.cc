#include "util/atomic_bitmap.h"

#include <bit>

#include "util/logging.h"
#include "util/math_util.h"

namespace hytgraph {

AtomicBitmap::AtomicBitmap(uint64_t size) { Reset(size); }

void AtomicBitmap::Reset(uint64_t size) {
  size_ = size;
  words_ = std::vector<std::atomic<uint64_t>>(CeilDiv(size, kBitsPerWord));
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
}

bool AtomicBitmap::TestAndSet(uint64_t i) {
  HYT_CHECK_LT(i, size_);
  const uint64_t mask = 1ULL << (i % kBitsPerWord);
  std::atomic<uint64_t>& word = words_[i / kBitsPerWord];
  // Cheap read first: most repeated activations hit an already-set bit and
  // skip the RMW entirely.
  if (word.load(std::memory_order_relaxed) & mask) return false;
  return (word.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
}

void AtomicBitmap::Clear(uint64_t i) {
  HYT_CHECK_LT(i, size_);
  const uint64_t mask = 1ULL << (i % kBitsPerWord);
  words_[i / kBitsPerWord].fetch_and(~mask, std::memory_order_relaxed);
}

bool AtomicBitmap::TestAndClear(uint64_t i) {
  HYT_CHECK_LT(i, size_);
  const uint64_t mask = 1ULL << (i % kBitsPerWord);
  std::atomic<uint64_t>& word = words_[i / kBitsPerWord];
  if ((word.load(std::memory_order_relaxed) & mask) == 0) return false;
  return (word.fetch_and(~mask, std::memory_order_relaxed) & mask) != 0;
}

bool AtomicBitmap::Test(uint64_t i) const {
  HYT_CHECK_LT(i, size_);
  return (words_[i / kBitsPerWord].load(std::memory_order_relaxed) >>
          (i % kBitsPerWord)) &
         1ULL;
}

uint64_t AtomicBitmap::FetchOrWord(uint64_t w, uint64_t bits) {
  HYT_CHECK_LT(w, words_.size());
  std::atomic<uint64_t>& word = words_[w];
  // Cheap read first, as in TestAndSet: a word whose bits are all set
  // already skips the RMW.
  const uint64_t seen = word.load(std::memory_order_relaxed);
  if ((bits & ~seen) == 0) return seen;
  return word.fetch_or(bits, std::memory_order_relaxed);
}

void AtomicBitmap::ClearAll() {
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
}

uint64_t AtomicBitmap::Count() const { return CountRange(0, size_); }

uint64_t AtomicBitmap::CountRange(uint64_t begin, uint64_t end) const {
  if (begin >= end) return 0;
  HYT_CHECK_LE(end, size_);
  const uint64_t first_word = begin / kBitsPerWord;
  const uint64_t last_word = (end - 1) / kBitsPerWord;
  uint64_t count = 0;
  for (uint64_t w = first_word; w <= last_word; ++w) {
    uint64_t bits = words_[w].load(std::memory_order_relaxed);
    if (w == first_word) {
      bits &= ~0ULL << (begin % kBitsPerWord);
    }
    if (w == last_word && (end % kBitsPerWord) != 0) {
      bits &= (1ULL << (end % kBitsPerWord)) - 1;
    }
    count += std::popcount(bits);
  }
  return count;
}

void AtomicBitmap::CollectSetBits(uint64_t begin, uint64_t end,
                                  std::vector<uint32_t>* out) const {
  if (begin >= end) return;
  HYT_CHECK_LE(end, size_);
  const uint64_t first_word = begin / kBitsPerWord;
  const uint64_t last_word = (end - 1) / kBitsPerWord;
  for (uint64_t w = first_word; w <= last_word; ++w) {
    uint64_t bits = words_[w].load(std::memory_order_relaxed);
    if (w == first_word) {
      bits &= ~0ULL << (begin % kBitsPerWord);
    }
    if (w == last_word && (end % kBitsPerWord) != 0) {
      bits &= (1ULL << (end % kBitsPerWord)) - 1;
    }
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      out->push_back(static_cast<uint32_t>(w * kBitsPerWord + bit));
      bits &= bits - 1;
    }
  }
}

}  // namespace hytgraph
