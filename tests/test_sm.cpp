// Sm issue-path tests against a hand-driven request crossbar: a warp whose
// line finds the crossbar input full counts one stall per cycle, each wake
// source (a freed slot, a reply, a due L1-hit completion, a due compute
// timer) resumes issue on the cycle a per-cycle re-poll would, and a blocked
// cycle's scan passes over exactly the warps mid memory op. Every expected
// value below is worked out by hand in the comments.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "gpu/sm.hpp"
#include "workloads/patterns.hpp"

namespace lazydram {
namespace {

using gpu::WarpOp;

constexpr Addr kA = 0x10000;
constexpr Addr kB = 0x20000;
constexpr Addr kC = 0x40000;
constexpr Addr kS = 0x30000;

/// Each warp runs a fixed op list.
class ScriptWorkload final : public workloads::Workload {
 public:
  explicit ScriptWorkload(std::vector<std::vector<WarpOp>> scripts)
      : scripts_(std::move(scripts)) {}

  std::string name() const override { return "script"; }
  std::string description() const override { return "test workload"; }
  unsigned group() const override { return 1; }
  workloads::FeatureTargets targets() const override { return {}; }
  unsigned num_warps() const override { return static_cast<unsigned>(scripts_.size()); }
  bool op_at(unsigned warp, unsigned step, WarpOp& op) const override {
    if (step >= scripts_[warp].size()) return false;
    op = scripts_[warp][step];
    return true;
  }
  void init_memory(gpu::MemoryImage&) const override {}
  void compute_output(gpu::MemView&) const override {}
  std::vector<workloads::AddrRange> output_ranges() const override { return {}; }
  std::vector<workloads::AddrRange> approximable_ranges() const override { return {}; }

 private:
  std::vector<std::vector<WarpOp>> scripts_;
};

/// One SM (id 0) in front of a request crossbar whose input holds a single
/// packet. The crossbar never ticks unless a test frees a slot, so once the
/// SM has pushed a packet every later push must wait.
struct Rig {
  explicit Rig(std::vector<std::vector<WarpOp>> scripts)
      : wl(std::move(scripts)),
        mapper(cfg),
        xbar(1, cfg.num_channels, cfg.icnt_latency, /*input_queue_capacity=*/1),
        sm(cfg, 0, wl, mapper) {
    for (unsigned w = 0; w < wl.num_warps(); ++w) sm.assign_warp(w);
  }

  void tick() { sm.tick(++now, xbar); }
  /// Grants the input's head packet, freeing its slot for the next tick.
  void free_slot() {
    ASSERT_FALSE(xbar.can_push(0));
    xbar.tick(now);
    ASSERT_TRUE(xbar.can_push(0));
  }
  /// Delivers the fill for `line` after this cycle's tick, as GpuTop does.
  void reply(Addr line) {
    icnt::Packet p;
    p.line_addr = line;
    sm.on_reply(p);
  }
  /// Ticks once per entry and checks the stall count after each tick.
  void expect_stalls(std::initializer_list<std::uint64_t> per_tick) {
    for (const std::uint64_t want : per_tick) {
      tick();
      ASSERT_EQ(sm.l1_miss_stalls(), want) << "cycle " << now;
    }
  }

  GpuConfig cfg;
  ScriptWorkload wl;
  AddressMapper mapper;
  icnt::Crossbar xbar;
  gpu::Sm sm;
  Cycle now = 0;
};

TEST(Sm, FreedSlotResumesLsuOwnerAndStore) {
  Rig r({{workloads::wide_load(kA, 2, false), WarpOp::store_line(kS)}});
  // Cycle 1 sends line A (the input is now full); the second line owns the
  // LSU and stalls from cycle 2 on.
  r.tick();
  EXPECT_EQ(r.sm.instructions(), 0u);
  r.expect_stalls({1, 2, 3, 4});  // Cycles 2..5.
  r.free_slot();
  // Cycle 6: the second line goes out and the load retires.
  r.expect_stalls({4});
  EXPECT_EQ(r.sm.instructions(), 1u);
  // Cycle 7 decodes the store, which waits on the refilled input.
  r.expect_stalls({5, 6, 7});  // Cycles 7..9.
  EXPECT_EQ(r.sm.instructions(), 1u);
  r.free_slot();
  r.expect_stalls({7});  // Cycle 10: the store goes out.
  EXPECT_EQ(r.sm.instructions(), 2u);
  r.expect_stalls({7, 7});  // The warp sleeps on its outstanding loads.
}

TEST(Sm, ReplyAndComputeTimerWakeStalledSm) {
  Rig r({{WarpOp::load_line(kA, false), WarpOp::compute(5), WarpOp::compute(2)},
         {WarpOp::load_line(kB, false)}});
  r.tick();  // Cycle 1: warp 0 sends A.
  EXPECT_EQ(r.sm.instructions(), 1u);
  // Cycle 2: warp 1's B finds the input full; warp 0's compute waits on A.
  r.expect_stalls({1, 2, 3});  // Cycles 2..4.
  r.reply(kA);
  // Cycle 5: B still waits, and warp 0's compute(5) issues (busy to 10).
  r.expect_stalls({4});
  EXPECT_EQ(r.sm.instructions(), 2u);
  r.expect_stalls({5, 6, 7, 8});  // Cycles 6..9.
  EXPECT_EQ(r.sm.instructions(), 2u);
  // Cycle 10: the compute timer is due and compute(2) issues (busy to 12).
  r.expect_stalls({9});
  EXPECT_EQ(r.sm.instructions(), 3u);
  // Cycles 11, 12 (warp 0 retires at 12), then B alone.
  r.expect_stalls({10, 11, 12, 13});
  EXPECT_EQ(r.sm.done_warps(), 1u);
  r.free_slot();
  r.expect_stalls({13});  // Cycle 15: B goes out.
  EXPECT_EQ(r.sm.instructions(), 4u);
}

TEST(Sm, DueL1HitCompletionWakesStalledSm) {
  Rig r({{WarpOp::load_line(kA, false), WarpOp::load_line(kA, false), WarpOp::compute(3)},
         {WarpOp::compute(20), WarpOp::load_line(kB, false)}});
  r.tick();  // Cycle 1: warp 0 sends A; the input stays full from here on.
  r.reply(kA);
  // Cycle 2: warp 1's compute(20), busy to 22. Cycle 3: warp 0 hits A in the
  // L1, done at 3 + 24 = 27. Cycle 4: warp 0's compute waits on that hit.
  r.expect_stalls({0, 0, 0});
  EXPECT_EQ(r.sm.instructions(), 3u);
  ASSERT_EQ(r.cfg.l1_hit_latency, 24u);
  for (Cycle c = 5; c < 22; ++c) r.expect_stalls({0});
  // Cycle 22: warp 1 wakes and its B finds the input full.
  r.expect_stalls({1, 2, 3, 4, 5});  // Cycles 22..26.
  EXPECT_EQ(r.sm.instructions(), 3u);
  // Cycle 27: the hit completes and warp 0's compute(3) issues.
  r.expect_stalls({6});
  EXPECT_EQ(r.sm.instructions(), 4u);
}

TEST(Sm, TickWithTwoStallsKeepsCountingBoth) {
  // A line's MSHR entry takes 64 waiters; warp 0's 65th load of A stalls on
  // that limit, which is not a crossbar wait.
  std::vector<WarpOp> loads(65, WarpOp::load_line(kA, false));
  Rig r({loads, {WarpOp::compute(200), WarpOp::load_line(kB, false)}});
  // Cycle 1: A is sent. Cycle 2: warp 1's compute(200), busy to 202. Cycles
  // 3..65: 63 merges into A's entry.
  for (Cycle c = 1; c <= 65; ++c) r.expect_stalls({0});
  EXPECT_EQ(r.sm.instructions(), 65u);
  // Cycles 66..201: the 65th load stalls alone.
  for (std::uint64_t s = 1; s <= 136; ++s) r.expect_stalls({s});
  // From cycle 202 warp 1's B also waits on the full input: two stalls a
  // cycle, first the merge limit, then the crossbar.
  r.expect_stalls({138, 140, 142, 144, 146, 148});
  r.free_slot();
  // Cycle 208: the merge limit still stalls, then B goes out.
  r.expect_stalls({149});
  EXPECT_EQ(r.sm.instructions(), 66u);
}

TEST(Sm, BlockedScanSkipsMidOpWarpAndIssuesCompute) {
  Rig r({{WarpOp::load_line(kA, false), WarpOp::compute(1)},
         {WarpOp::load_line(kB, false)},
         {WarpOp::load_line(kC, false)}});
  r.tick();  // Cycle 1: warp 0 sends A; the input is now full. Scan: 1, 2, 0.
  EXPECT_EQ(r.sm.instructions(), 1u);
  // Cycle 2: warp 1's B stalls; warp 2 decodes C, now mid memory op behind
  // the blocked LSU; warp 0 decodes its compute and sleeps on A.
  r.expect_stalls({1});
  r.reply(kA);  // Warp 0 rejoins the scan behind warps 1 and 2.
  // Cycle 3: warp 1 stalls once more, warp 2 is passed over, and warp 0's
  // compute issues in the same tick.
  r.expect_stalls({2});
  EXPECT_EQ(r.sm.instructions(), 2u);
  r.free_slot();
  r.expect_stalls({2});  // Cycle 4: B goes out.
  EXPECT_EQ(r.sm.instructions(), 3u);
  r.expect_stalls({3});  // Cycle 5: C waits on the refilled input.
  r.free_slot();
  r.expect_stalls({3});  // Cycle 6: C goes out.
  EXPECT_EQ(r.sm.instructions(), 4u);
}

TEST(Sm, WarpPastItsLastLineIsNotSkippedAsMidOp) {
  Rig r({{workloads::wide_load(kA, 2, false), WarpOp::compute(5)},
         {WarpOp::load_line(kB, false)}});
  r.tick();  // Cycle 1: warp 0 sends A and owns the LSU for its second line.
  r.expect_stalls({1});  // Cycle 2: the second line waits.
  r.free_slot();
  r.expect_stalls({1});  // Cycle 3: the second line goes out; the load retires.
  EXPECT_EQ(r.sm.instructions(), 1u);
  // Cycle 4: warp 0 decodes its compute and sleeps on two loads; warp 1's B
  // stalls.
  r.expect_stalls({2});
  r.reply(kA);
  r.reply(kA + kLineBytes);  // Warp 0 rejoins the scan behind warp 1.
  // Cycle 5: B stalls again, then warp 0's compute issues: the warp is no
  // longer mid memory op.
  r.expect_stalls({3});
  EXPECT_EQ(r.sm.instructions(), 2u);
  r.free_slot();
  r.expect_stalls({3});  // Cycle 6: B goes out.
  EXPECT_EQ(r.sm.instructions(), 3u);
}

}  // namespace
}  // namespace lazydram
