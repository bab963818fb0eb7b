// Cache + MSHR unit tests: lookup, LRU eviction, dirty write-back, the
// approximate-fill tag, per-set enumeration (VP support), the cache against
// the array-of-lines layout it replaced, MSHR merging and the MSHR table
// against a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "icnt/crossbar.hpp"

namespace lazydram::cache {
namespace {

CacheGeometry small_geo() { return CacheGeometry{4 * 128 * 2, 2, 128, 8}; }  // 4 sets, 2 ways.

Addr line_in_set(const Cache& c, std::uint32_t set, unsigned k) {
  // k-th distinct line mapping to `set`.
  return (static_cast<Addr>(k) * c.num_sets() + set) * kLineBytes;
}

TEST(Cache, MissThenFillThenHit) {
  Cache c(small_geo());
  const Addr a = 0x1000;
  EXPECT_FALSE(c.access(a, false).hit);
  c.fill(a, false, false);
  EXPECT_TRUE(c.access(a, false).hit);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.fills(), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(small_geo());
  const Addr a = line_in_set(c, 0, 0), b = line_in_set(c, 0, 1), d = line_in_set(c, 0, 2);
  c.fill(a, false, false);
  c.fill(b, false, false);
  c.access(a, false);  // Touch a: b becomes LRU.
  c.fill(d, false, false);
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(small_geo());
  const Addr a = line_in_set(c, 1, 0), b = line_in_set(c, 1, 1), d = line_in_set(c, 1, 2);
  c.fill(a, /*dirty=*/true, false);
  c.fill(b, false, false);
  const AccessResult r = c.fill(d, false, false);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.evicted_line, a);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(small_geo());
  const Addr a = line_in_set(c, 2, 0), b = line_in_set(c, 2, 1), d = line_in_set(c, 2, 2);
  c.fill(a, false, false);
  c.access(a, /*is_write=*/true);
  c.fill(b, false, false);
  c.access(b, false);
  const AccessResult r = c.fill(d, false, false);  // Evicts a (LRU, dirty).
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.evicted_line, a);
}

TEST(Cache, ApproximateFlagTracked) {
  Cache c(small_geo());
  const Addr a = 0x2000;
  c.fill(a, false, /*approximate=*/true);
  EXPECT_TRUE(c.line_is_approx(a));
  c.fill(a, false, /*approximate=*/false);  // Accurate refill clears it.
  EXPECT_FALSE(c.line_is_approx(a));
}

TEST(Cache, InvalidateReportsDirtiness) {
  Cache c(small_geo());
  c.fill(0x3000, true, false);
  EXPECT_TRUE(c.invalidate(0x3000));
  EXPECT_FALSE(c.contains(0x3000));
  EXPECT_FALSE(c.invalidate(0x3000));
}

TEST(Cache, LinesInSetEnumeratesValidLines) {
  Cache c(small_geo());
  const Addr a = line_in_set(c, 3, 0), b = line_in_set(c, 3, 1);
  c.fill(a, false, false);
  c.fill(b, false, false);
  std::vector<Addr> lines;
  c.lines_in_set(3, lines);
  EXPECT_EQ(lines.size(), 2u);
  EXPECT_TRUE((lines[0] == a && lines[1] == b) || (lines[0] == b && lines[1] == a));
}

/// The array-of-Line cache that the struct-of-arrays Cache replaced, kept
/// only as the oracle for CacheFuzz: one record per way, a valid bit, and a
/// victim loop that takes the first invalid way, else the first
/// least-recently-used one.
class ReferenceLineArray {
 public:
  explicit ReferenceLineArray(const CacheGeometry& geo)
      : sets_(geo.num_sets()), ways_(geo.ways), lines_(static_cast<std::size_t>(sets_) * ways_) {}

  AccessResult access(Addr line_addr, bool is_write) {
    if (Line* line = find(line_addr)) {
      line->last_use = ++use_clock_;
      if (is_write) line->dirty = true;
      ++hits_;
      return {.hit = true};
    }
    ++misses_;
    return {.hit = false};
  }

  AccessResult fill(Addr line_addr, bool dirty, bool approximate) {
    ++fills_;
    if (Line* line = find(line_addr)) {
      line->last_use = ++use_clock_;
      line->dirty = line->dirty || dirty;
      line->approximate = approximate;
      return {.hit = true};
    }
    Line* base = set_lines(set_of(line_addr));
    Line* victim = &base[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].last_use < victim->last_use) victim = &base[w];
    }
    AccessResult result;
    if (victim->valid && victim->dirty) {
      result.writeback = true;
      result.evicted_line = victim->addr;
    }
    *victim = Line{line_addr, true, dirty, approximate, ++use_clock_};
    return result;
  }

  bool invalidate(Addr line_addr) {
    if (Line* line = find(line_addr)) {
      line->valid = false;
      return line->dirty;
    }
    return false;
  }

  bool contains(Addr line_addr) { return find(line_addr) != nullptr; }
  bool line_is_approx(Addr line_addr) {
    const Line* line = find(line_addr);
    return line != nullptr && line->approximate;
  }
  std::vector<Addr> lines_in_set(std::uint32_t set) {
    std::vector<Addr> out;
    const Line* base = set_lines(set);
    for (std::uint32_t w = 0; w < ways_; ++w)
      if (base[w].valid) out.push_back(base[w].addr);
    return out;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t fills() const { return fills_; }

 private:
  struct Line {
    Addr addr = 0;
    bool valid = false;
    bool dirty = false;
    bool approximate = false;
    std::uint64_t last_use = 0;
  };

  std::uint32_t set_of(Addr line_addr) const {
    return static_cast<std::uint32_t>((line_addr / kLineBytes) & (sets_ - 1));
  }
  Line* set_lines(std::uint32_t set) { return &lines_[static_cast<std::size_t>(set) * ways_]; }
  Line* find(Addr line_addr) {
    Line* base = set_lines(set_of(line_addr));
    for (std::uint32_t w = 0; w < ways_; ++w)
      if (base[w].valid && base[w].addr == line_addr) return &base[w];
    return nullptr;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Line> lines_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t fills_ = 0;
};

/// Seeded access/fill/invalidate/lookup churn on a 4-set cache of `ways`
/// ways, compared with ReferenceLineArray after every call: the returned
/// hit, write-back and evicted line, the counters, and the order in which
/// lines_in_set lists every set.
void churn_against_line_array(std::uint32_t ways) {
  constexpr std::uint32_t kSets = 4;
  const CacheGeometry geo{kSets * ways * static_cast<std::uint32_t>(kLineBytes), ways,
                          static_cast<std::uint32_t>(kLineBytes), 8};
  Cache cache(geo);
  ReferenceLineArray ref(geo);
  ASSERT_EQ(cache.num_sets(), kSets);

  // Two more candidate lines per set than it has ways, so sets fill, evict
  // and keep holes left by invalidations.
  std::vector<Addr> pool;
  for (std::uint32_t set = 0; set < kSets; ++set)
    for (unsigned k = 0; k < ways + 2; ++k) pool.push_back(line_in_set(cache, set, k));

  std::mt19937_64 rng(ways * 7919 + 1);
  unsigned writebacks = 0, refills = 0, hole_fills = 0;
  for (int op = 0; op < 20000; ++op) {
    const Addr line = pool[rng() % pool.size()];
    const std::uint64_t kind = rng() % 100;
    if (kind < 30) {
      const bool is_write = rng() % 4 == 0;
      const AccessResult got = cache.access(line, is_write);
      ASSERT_EQ(got.hit, ref.access(line, is_write).hit) << "op " << op;
    } else if (kind < 40) {
      // The slot path GpuTop takes: one probe, then access and tag reads.
      const Cache::Slot slot = cache.probe(line);
      ASSERT_EQ(slot != Cache::kNoSlot, ref.contains(line)) << "op " << op;
      if (slot != Cache::kNoSlot) {
        ASSERT_EQ(cache.approximate_at(slot), ref.line_is_approx(line)) << "op " << op;
      }
      const bool is_write = rng() % 2 == 0;
      ASSERT_EQ(cache.access_at(slot, is_write), ref.access(line, is_write).hit) << "op " << op;
    } else if (kind < 70) {
      const bool dirty = rng() % 3 == 0, approximate = rng() % 3 == 0;
      const bool holes = ref.lines_in_set(cache.set_index(line)).size() < ways;
      const AccessResult want = ref.fill(line, dirty, approximate);
      const AccessResult got = cache.fill(line, dirty, approximate);
      ASSERT_EQ(got.hit, want.hit) << "op " << op;
      ASSERT_EQ(got.writeback, want.writeback) << "op " << op;
      if (want.writeback) {
        ASSERT_EQ(got.evicted_line, want.evicted_line) << "op " << op;
      }
      writebacks += want.writeback;
      refills += want.hit;
      hole_fills += !want.hit && holes;
    } else if (kind < 80) {
      ASSERT_EQ(cache.invalidate(line), ref.invalidate(line)) << "op " << op;
    } else if (kind < 90) {
      ASSERT_EQ(cache.contains(line), ref.contains(line)) << "op " << op;
    } else {
      ASSERT_EQ(cache.line_is_approx(line), ref.line_is_approx(line)) << "op " << op;
    }
    ASSERT_EQ(cache.hits(), ref.hits()) << "op " << op;
    ASSERT_EQ(cache.misses(), ref.misses()) << "op " << op;
    ASSERT_EQ(cache.fills(), ref.fills()) << "op " << op;
    for (std::uint32_t set = 0; set < kSets; ++set) {
      std::vector<Addr> lines;
      cache.lines_in_set(set, lines);
      ASSERT_EQ(lines, ref.lines_in_set(set)) << "op " << op << ", set " << set;
    }
  }
  EXPECT_GT(writebacks, 0u);
  EXPECT_GT(refills, 0u);
  EXPECT_GT(hole_fills, 0u);
}

TEST(CacheFuzz, MatchesReferenceLineArray) {
  for (const std::uint32_t ways : {1u, 4u, 8u, 16u}) {
    SCOPED_TRACE(testing::Message() << ways << "-way");
    ASSERT_NO_FATAL_FAILURE(churn_against_line_array(ways));
  }
}

TEST(Mshr, PrimaryThenMergedMisses) {
  MshrTable<MshrToken> mshr(4, 8);
  EXPECT_TRUE(mshr.allocate(0x1000, 1));   // Primary.
  EXPECT_FALSE(mshr.allocate(0x1000, 2));  // Merge.
  EXPECT_TRUE(mshr.has(0x1000));
  const auto waiters = mshr.release(0x1000);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[0], 1u);
  EXPECT_EQ(waiters[1], 2u);
  EXPECT_FALSE(mshr.has(0x1000));
}

TEST(Mshr, CapacityLimits) {
  MshrTable<MshrToken> mshr(2, 2);
  mshr.allocate(0x100, 1);
  mshr.allocate(0x200, 2);
  EXPECT_FALSE(mshr.can_allocate(0x300));  // Entries exhausted.
  EXPECT_TRUE(mshr.can_allocate(0x100));   // Merge room remains.
  mshr.allocate(0x100, 3);
  EXPECT_FALSE(mshr.can_allocate(0x100));  // Merge limit hit.
}


/// Drives `mshr` through seeded allocate/release churn against a map of
/// per-line token vectors. `make_token(n)` builds the token for draw n (few
/// distinct draws, so the same token repeats); `same` compares two tokens.
template <typename Token, typename MakeToken, typename Same>
void churn_against_reference(MshrTable<Token>& mshr, std::uint32_t entries,
                             std::uint32_t max_merged, MakeToken make_token, Same same) {
  std::map<Addr, std::vector<Token>> ref;

  // Group candidate lines by home bucket, then draw the pool from a few
  // neighbouring buckets, including the last and first so chains wrap. Live
  // entries then pile into shared probe chains, and every release has to
  // shift later chain members back.
  std::map<std::size_t, std::vector<Addr>> by_home;
  for (Addr line = 0; line < 20000 * kLineBytes; line += kLineBytes)
    by_home[mshr.home_bucket(line)].push_back(line);
  const std::size_t buckets = by_home.rbegin()->first + 1;
  std::vector<Addr> pool;
  for (const std::size_t home : {buckets - 2, buckets - 1, std::size_t{0}, std::size_t{1},
                                 std::size_t{2}, std::size_t{5}, std::size_t{6}, std::size_t{9}}) {
    const std::vector<Addr>& lines = by_home[home];
    ASSERT_GE(lines.size(), 12u);
    pool.insert(pool.end(), lines.begin(), lines.begin() + 12);
  }

  // Phases of 1000 operations alternate between mostly allocating (the
  // table fills to its entry cap) and mostly releasing (it drains).
  std::mt19937_64 rng(24);
  unsigned entry_cap_hits = 0, merge_cap_hits = 0, merges = 0, releases = 0;
  std::size_t longest = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t allocate_pct = (op / 1000) % 2 == 0 ? 85 : 35;
    if (ref.empty() || rng() % 100 < allocate_pct) {
      const Addr line = pool[rng() % pool.size()];
      const auto it = ref.find(line);
      const bool tracked = it != ref.end();
      ASSERT_EQ(mshr.has(line), tracked) << "op " << op;
      const bool room = tracked ? it->second.size() < max_merged : ref.size() < entries;
      ASSERT_EQ(mshr.can_allocate(line), room) << "op " << op;
      ASSERT_EQ(mshr.full(), ref.size() == entries) << "op " << op;
      if (!room) {
        ++(tracked ? merge_cap_hits : entry_cap_hits);
        continue;
      }
      const Token token = make_token(rng() % 6);
      ASSERT_EQ(mshr.allocate(line, token), !tracked) << "op " << op;
      ref[line].push_back(token);
      longest = std::max(longest, ref[line].size());
      merges += tracked;
    } else {
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng() % ref.size()));
      const auto waiters = mshr.release(it->first);
      ASSERT_TRUE(std::equal(waiters.begin(), waiters.end(), it->second.begin(),
                             it->second.end(), same))
          << "op " << op;
      ref.erase(it);
      ++releases;
    }
    ASSERT_EQ(mshr.size(), ref.size()) << "op " << op;
    for (const Addr line : pool) ASSERT_EQ(mshr.has(line), ref.count(line) != 0) << "op " << op;
  }
  EXPECT_GT(entry_cap_hits, 0u);
  EXPECT_GT(merges, 0u);
  EXPECT_GT(releases, 1000u);
  if (max_merged == kUnlimitedMerges) {
    // Without a cap a hot line keeps merging past any fixed limit.
    EXPECT_EQ(merge_cap_hits, 0u);
    EXPECT_GT(longest, 8u);
  } else {
    EXPECT_GT(merge_cap_hits, 0u);
  }
}

TEST(Mshr, MatchesReferenceModelUnderChurn) {
  // The L1's table: integer tokens, eight waiters per entry at most.
  {
    SCOPED_TRACE("warp-slot tokens, merge cap 8");
    MshrTable<MshrToken> mshr(32, 8);
    churn_against_reference(
        mshr, 32, 8, [](std::uint64_t n) { return MshrToken{n}; },
        [](MshrToken a, MshrToken b) { return a == b; });
  }
  // The L2's table: whole request packets, merged without limit.
  {
    SCOPED_TRACE("packet tokens, unlimited merges");
    MshrTable<icnt::Packet> mshr(32, kUnlimitedMerges);
    churn_against_reference(
        mshr, 32, kUnlimitedMerges,
        [](std::uint64_t n) {
          icnt::Packet p;
          p.id = n + 1;
          p.src_sm = static_cast<SmId>(n * 7 % 15);
          p.inject_cycle = 100 * n;
          return p;
        },
        [](const icnt::Packet& a, const icnt::Packet& b) {
          return a.id == b.id && a.src_sm == b.src_sm && a.inject_cycle == b.inject_cycle;
        });
  }
}

}  // namespace
}  // namespace lazydram::cache
