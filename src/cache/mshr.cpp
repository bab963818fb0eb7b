#include "cache/mshr.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace lazydram::cache {

MshrTable::MshrTable(std::uint32_t entries, std::uint32_t max_merged_per_entry)
    : max_merged_(max_merged_per_entry), slots_(entries) {
  free_.reserve(entries);
  for (std::uint32_t s = entries; s-- > 0;) free_.push_back(s);
  const std::size_t buckets = std::bit_ceil(std::max<std::size_t>(2, 2 * std::size_t{entries}));
  index_.resize(buckets);
  mask_ = buckets - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
}

std::size_t MshrTable::find(Addr line_addr) const {
  std::size_t b = home_bucket(line_addr);
  while (index_[b].slot != kNoSlot && index_[b].line != line_addr) b = (b + 1) & mask_;
  return b;
}

bool MshrTable::can_allocate(Addr line_addr) const {
  const Bucket& bucket = index_[find(line_addr)];
  if (bucket.slot != kNoSlot) return slots_[bucket.slot].size() < max_merged_;
  return !free_.empty();
}

bool MshrTable::allocate(Addr line_addr, MshrToken token) {
  Bucket& bucket = index_[find(line_addr)];
  if (bucket.slot != kNoSlot) {
    std::vector<MshrToken>& waiters = slots_[bucket.slot];
    LD_ASSERT_MSG(waiters.size() < max_merged_, "MSHR allocate without capacity check");
    waiters.push_back(token);
    return false;
  }
  LD_ASSERT_MSG(!free_.empty(), "MSHR allocate without capacity check");
  bucket.line = line_addr;
  bucket.slot = free_.back();
  free_.pop_back();
  std::vector<MshrToken>& waiters = slots_[bucket.slot];
  waiters.clear();
  waiters.push_back(token);
  return true;
}

std::span<const MshrToken> MshrTable::release(Addr line_addr) {
  std::size_t hole = find(line_addr);
  const std::uint32_t slot = index_[hole].slot;
  LD_ASSERT_MSG(slot != kNoSlot, "MSHR release of untracked line");
  free_.push_back(slot);

  // Backward-shift deletion: move each later member of the chain whose home
  // bucket does not lie in (hole, b] into the hole, so every entry stays
  // reachable from its home bucket without tombstones.
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

}  // namespace lazydram::cache
