// Miss Status Holding Registers: merge concurrent misses to the same line and
// remember who to wake when the refill (or VP prediction) arrives.
//
// The table is flat and allocates nothing once warm: `entries` fixed slots,
// each with a token vector that keeps its capacity across uses, and a
// linear-probing index of at least twice as many buckets, so a probe chain
// stays short. Removing an index entry shifts the rest of its chain back
// instead of leaving a tombstone.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace lazydram::cache {

/// Opaque waiter handle; the owner decides its meaning (warp slot, request
/// id, ...).
using MshrToken = std::uint64_t;

class MshrTable {
 public:
  MshrTable(std::uint32_t entries, std::uint32_t max_merged_per_entry = 64);

  /// True if a miss on `line_addr` can currently be tracked (existing entry
  /// with merge room, or a free entry).
  bool can_allocate(Addr line_addr) const;

  /// Registers `token` as waiting on `line_addr`. Returns true if this is
  /// the *primary* miss (a new entry, i.e. a memory request must be sent);
  /// false if it merged into an existing entry.
  bool allocate(Addr line_addr, MshrToken token);

  bool has(Addr line_addr) const { return index_[find(line_addr)].slot != kNoSlot; }
  std::size_t size() const { return slots_.size() - free_.size(); }
  bool empty() const { return size() == 0; }

  /// Fill arrived: removes the entry and returns its waiting tokens in
  /// allocation order, repeats included. The view stays valid until the
  /// next allocate().
  std::span<const MshrToken> release(Addr line_addr);

  /// Bucket at which the index starts probing for `line_addr`. Lines with
  /// the same home bucket share a probe chain.
  std::size_t home_bucket(Addr line_addr) const {
    return static_cast<std::size_t>((line_addr * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Bucket {
    Addr line = 0;
    std::uint32_t slot = kNoSlot;  ///< Index into slots_; kNoSlot = empty.
  };

  /// Bucket holding `line_addr`, or the empty bucket that ends its chain.
  std::size_t find(Addr line_addr) const;

  std::uint32_t max_merged_;
  std::vector<std::vector<MshrToken>> slots_;  ///< Waiters per entry slot.
  std::vector<std::uint32_t> free_;            ///< Free slots, reused last-in first.
  std::vector<Bucket> index_;                  ///< Power-of-two bucket count.
  std::size_t mask_ = 0;
  unsigned shift_ = 0;  ///< 64 - log2(bucket count): Fibonacci hashing.
};

}  // namespace lazydram::cache
