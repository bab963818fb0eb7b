// Cache + MSHR unit tests: lookup, LRU eviction, dirty write-back, the
// approximate-fill tag, per-set enumeration (VP support), MSHR merging and
// the MSHR table against a reference model.
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
