// Miss Status Holding Registers: merge concurrent misses to the same line and
// remember who to wake when the refill (or VP prediction) arrives. One table
// serves both levels: the L1's waiters are warp slots, the L2's the request
// packets themselves.
//
// The table is flat: `entries` fixed slots, each with a token vector, and a
// linear-probing index of at least twice as many buckets, so a probe chain
// stays short. Removing an index entry shifts the rest of its chain back
// instead of leaving a tombstone. A slot keeps up to kRetainBytes of token
// storage across uses, so a warm table allocates nothing for misses that
// merge little; a slot that grew past that frees it when reused, so the
// table's footprint follows its live waiters rather than the largest merge
// each slot ever saw (an L2 slot holds whole packets).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace lazydram::cache {

/// Opaque waiter handle; the owner decides its meaning (warp slot, request
/// id, ...).
using MshrToken = std::uint64_t;

/// `max_merged_per_entry` for a table whose entries merge without limit.
inline constexpr std::uint32_t kUnlimitedMerges = ~std::uint32_t{0};

template <typename Token>
class MshrTable {
 public:
  MshrTable(std::uint32_t entries, std::uint32_t max_merged_per_entry = 64)
      : max_merged_(max_merged_per_entry), slots_(entries) {
    free_.reserve(entries);
    for (std::uint32_t s = entries; s-- > 0;) free_.push_back(s);
    const std::size_t buckets =
        std::bit_ceil(std::max<std::size_t>(2, 2 * std::size_t{entries}));
    index_.resize(buckets);
    mask_ = buckets - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  }

  /// True if a miss on `line_addr` can currently be tracked (existing entry
  /// with merge room, or a free entry).
  bool can_allocate(Addr line_addr) const {
    const Bucket& bucket = index_[find(line_addr)];
    if (bucket.slot != kNoSlot) return slots_[bucket.slot].size() < max_merged_;
    return !full();
  }

  /// Registers `token` as waiting on `line_addr`. Returns true if this is
  /// the *primary* miss (a new entry, i.e. a memory request must be sent);
  /// false if it merged into an existing entry.
  bool allocate(Addr line_addr, const Token& token) {
    Bucket& bucket = index_[find(line_addr)];
    if (bucket.slot != kNoSlot) {
      std::vector<Token>& waiters = slots_[bucket.slot];
      LD_ASSERT_MSG(waiters.size() < max_merged_, "MSHR allocate without capacity check");
      waiters.push_back(token);
      return false;
    }
    LD_ASSERT_MSG(!full(), "MSHR allocate without capacity check");
    bucket.line = line_addr;
    bucket.slot = free_.back();
    free_.pop_back();
    std::vector<Token>& waiters = slots_[bucket.slot];
    waiters.clear();
    if (waiters.capacity() * sizeof(Token) > kRetainBytes) std::vector<Token>().swap(waiters);
    waiters.push_back(token);
    return true;
  }

  bool has(Addr line_addr) const { return index_[find(line_addr)].slot != kNoSlot; }
  std::size_t size() const { return slots_.size() - free_.size(); }
  bool empty() const { return size() == 0; }
  /// True when every entry is in use: only merges can be tracked.
  bool full() const { return free_.empty(); }

  /// Fill arrived: removes the entry and returns its waiting tokens in
  /// allocation order, repeats included. The view stays valid until the
  /// next allocate().
  std::span<const Token> release(Addr line_addr) {
    std::size_t hole = find(line_addr);
    const std::uint32_t slot = index_[hole].slot;
    LD_ASSERT_MSG(slot != kNoSlot, "MSHR release of untracked line");
    free_.push_back(slot);

    // Backward-shift deletion: move each later member of the chain whose
    // home bucket does not lie in (hole, b] into the hole, so every entry
    // stays reachable from its home bucket without tombstones.
    for (std::size_t b = (hole + 1) & mask_; index_[b].slot != kNoSlot; b = (b + 1) & mask_) {
      const std::size_t home = home_bucket(index_[b].line);
      if (((b - home) & mask_) >= ((b - hole) & mask_)) {
        index_[hole] = index_[b];
        hole = b;
      }
    }
    index_[hole].slot = kNoSlot;
    return slots_[slot];
  }

  /// Bucket at which the index starts probing for `line_addr`. Lines with
  /// the same home bucket share a probe chain.
  std::size_t home_bucket(Addr line_addr) const {
    return static_cast<std::size_t>((line_addr * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// Token storage a slot keeps across uses (one cache line).
  static constexpr std::size_t kRetainBytes = 64;

  struct Bucket {
    Addr line = 0;
    std::uint32_t slot = kNoSlot;  ///< Index into slots_; kNoSlot = empty.
  };

  /// Bucket holding `line_addr`, or the empty bucket that ends its chain.
  std::size_t find(Addr line_addr) const {
    std::size_t b = home_bucket(line_addr);
    while (index_[b].slot != kNoSlot && index_[b].line != line_addr) b = (b + 1) & mask_;
    return b;
  }

  std::uint32_t max_merged_;
  std::vector<std::vector<Token>> slots_;  ///< Waiters per entry slot.
  std::vector<std::uint32_t> free_;        ///< Free slots, reused last-in first.
  std::vector<Bucket> index_;              ///< Power-of-two bucket count.
  std::size_t mask_ = 0;
  unsigned shift_ = 0;  ///< 64 - log2(bucket count): Fibonacci hashing.
};

}  // namespace lazydram::cache
