#include "cache/cache.hpp"

#include "common/assert.hpp"

namespace lazydram::cache {

Cache::Cache(const CacheGeometry& geo) : sets_(geo.num_sets()), ways_(geo.ways) {
  LD_ASSERT(sets_ > 0 && (sets_ & (sets_ - 1)) == 0);
  LD_ASSERT(ways_ > 0);
  const std::size_t lines = static_cast<std::size_t>(sets_) * ways_;
  tags_.assign(lines, kNoLine);
  last_use_.assign(lines, 0);
  flags_.assign(lines, 0);
}

AccessResult Cache::access(Addr line_addr, bool is_write) {
  LD_ASSERT_MSG(line_addr % kLineBytes == 0, "cache access must be line-aligned");
  return {.hit = access_at(probe(line_addr), is_write)};
}

AccessResult Cache::fill(Addr line_addr, bool dirty, bool approximate) {
  LD_ASSERT_MSG(line_addr % kLineBytes == 0, "cache fill must be line-aligned");
  ++fills_;
  const std::uint8_t flags = (dirty ? kDirty : 0) | (approximate ? kApproximate : 0);

  if (const Slot slot = probe(line_addr); slot != kNoSlot) {
    // Refill of a line that raced in earlier (e.g. merged misses): refresh.
    last_use_[slot] = ++use_clock_;
    flags_[slot] = static_cast<std::uint8_t>((flags_[slot] & kDirty) | flags);
    return {.hit = true};
  }

  // The victim is the first way with the lowest stamp. An invalid way holds
  // stamp 0 and a valid one at least 1, so that is the first invalid way,
  // else the first least-recently-used one.
  const std::size_t base = set_base(line_addr);
  std::size_t victim = base;
  for (std::size_t s = base + 1; s < base + ways_; ++s)
    if (last_use_[s] < last_use_[victim]) victim = s;

  AccessResult result;
  if (tags_[victim] != kNoLine && (flags_[victim] & kDirty)) {
    result.writeback = true;
    result.evicted_line = tags_[victim];
  }
  tags_[victim] = line_addr;
  flags_[victim] = flags;
  last_use_[victim] = ++use_clock_;
  return result;
}

bool Cache::invalidate(Addr line_addr) {
  const Slot slot = probe(line_addr);
  if (slot == kNoSlot) return false;
  tags_[slot] = kNoLine;
  last_use_[slot] = 0;
  return (flags_[slot] & kDirty) != 0;
}

void Cache::lines_in_set(std::uint32_t set, std::vector<Addr>& out) const {
  LD_ASSERT(set < sets_);
  for (const Addr tag : set_tags(set))
    if (tag != kNoLine) out.push_back(tag);
}

}  // namespace lazydram::cache
