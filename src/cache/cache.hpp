// Set-associative, write-back, LRU cache model used for the per-SM L1s and
// the per-partition L2 slices.
//
// The model is tag-only: functional data lives in gpu::FunctionalMemory, so
// lines track {address, valid, dirty, approximate} but carry no bytes. The
// `approximate` flag marks lines filled by the VP unit rather than by DRAM.
// The L2's tag arrays double as the VP unit's search structure, which is why
// the cache exposes set geometry and per-set tags ("we take advantage of the
// existing associative search hardware", Section IV-D).
//
// Storage is struct-of-arrays, sets x ways row-major by set: a tag array in
// which an invalid way holds kNoLine, an array of LRU stamps (0 on an
// invalid way, so the victim is simply the first lowest stamp), and a flag
// byte per way (dirty, approximate): 17 bytes per line. A lookup walks only
// the set's tags. probe() returns the line's slot, so a caller that needs
// several answers about one line (hit, count, approximate tag) looks it up
// once and reads the rest at the slot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace lazydram::cache {

/// Outcome of a lookup or fill.
struct AccessResult {
  bool hit = false;
  /// A dirty line was evicted by this fill and must be written back.
  bool writeback = false;
  Addr evicted_line = 0;
};

class Cache {
 public:
  /// Index of one way in the tag arrays; kNoSlot when a line is not cached.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};
  /// Tag of an invalid way. Never a line address: those are 128B-aligned.
  static constexpr Addr kNoLine = ~Addr{0};

  explicit Cache(const CacheGeometry& geo);

  /// Slot holding `line_addr`, or kNoSlot. Counts nothing and leaves LRU
  /// alone: a stalled request may probe as often as it retries.
  Slot probe(Addr line_addr) const {
    const std::size_t base = set_base(line_addr);
    for (std::size_t s = base; s < base + ways_; ++s)
      if (tags_[s] == line_addr) return static_cast<Slot>(s);
    return kNoSlot;
  }

  /// Counts one access of a line that probe() found at `slot` (kNoSlot
  /// counts a miss) and returns whether it hit. A hit updates LRU and, if
  /// `is_write`, marks the line dirty. Valid until the next fill() or
  /// invalidate().
  bool access_at(Slot slot, bool is_write) {
    if (slot == kNoSlot) {
      ++misses_;
      return false;
    }
    last_use_[slot] = ++use_clock_;
    if (is_write) flags_[slot] |= kDirty;
    ++hits_;
    return true;
  }
  /// True iff the line at `slot` was filled by the VP unit.
  bool approximate_at(Slot slot) const { return (flags_[slot] & kApproximate) != 0; }

  /// Looks up `line_addr` (must be 128B-aligned) and counts the access as
  /// access_at() does. Misses do NOT allocate — call fill() when the refill
  /// arrives (or immediately for 0-latency models).
  AccessResult access(Addr line_addr, bool is_write);

  /// Allocates `line_addr`, evicting the set's victim if needed: the first
  /// invalid way, else the first least-recently-used one. `dirty` marks the
  /// new line dirty at once (write-allocate stores); `approximate` tags
  /// VP-synthesized fills.
  AccessResult fill(Addr line_addr, bool dirty, bool approximate);

  /// Invalidates `line_addr` if present; returns true if it was dirty.
  bool invalidate(Addr line_addr);

  bool contains(Addr line_addr) const { return probe(line_addr) != kNoSlot; }
  bool line_is_approx(Addr line_addr) const {
    const Slot slot = probe(line_addr);
    return slot != kNoSlot && approximate_at(slot);
  }

  // --- Geometry / VP-unit support ---
  std::uint32_t num_sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t set_index(Addr line_addr) const {
    return static_cast<std::uint32_t>((line_addr / kLineBytes) & (sets_ - 1));
  }
  /// The tags of `set`, one per way; an invalid way holds kNoLine.
  std::span<const Addr> set_tags(std::uint32_t set) const {
    return {tags_.data() + static_cast<std::size_t>(set) * ways_, ways_};
  }
  /// Appends the addresses of all valid lines in `set` to `out`, in way order.
  void lines_in_set(std::uint32_t set, std::vector<Addr>& out) const;

  // --- Statistics ---
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  std::uint64_t fills() const { return fills_; }
  double hit_rate() const {
    return accesses() == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(accesses());
  }

 private:
  static constexpr std::uint8_t kDirty = 1;
  static constexpr std::uint8_t kApproximate = 2;

  std::size_t set_base(Addr line_addr) const {
    return static_cast<std::size_t>(set_index(line_addr)) * ways_;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Addr> tags_;                ///< kNoLine = invalid way.
  /// LRU stamps: use_clock_ values, at least 1 on a valid way, 0 on an
  /// invalid one.
  std::vector<std::uint64_t> last_use_;
  std::vector<std::uint8_t> flags_;       ///< kDirty | kApproximate.
  std::uint64_t use_clock_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t fills_ = 0;
};

}  // namespace lazydram::cache
