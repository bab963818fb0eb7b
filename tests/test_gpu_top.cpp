// End-to-end GpuTop integration tests: completion, conservation, determinism,
// scheme invariants (coverage cap, baseline equivalence) on a small custom
// workload plus spot checks on registry apps.
#include <gtest/gtest.h>

#include "core/scheduler_registry.hpp"
#include "gpu/gpu_top.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workloads/patterns.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

using workloads::AddrRange;
using workloads::Level;

/// Small deterministic workload: strided tile reads + scattered reads +
/// stores, sized to finish in ~50k cycles.
class MiniWorkload final : public workloads::Workload {
 public:
  std::string name() const override { return "mini"; }
  std::string description() const override { return "test workload"; }
  unsigned group() const override { return 1; }
  workloads::FeatureTargets targets() const override { return {}; }
  unsigned num_warps() const override { return 120; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    constexpr unsigned kIters = 24;
    if (step >= kIters * 4) return false;
    const unsigned iter = step / 4;
    const Addr base = workloads::MiB(16) +
                      (static_cast<Addr>(warp) * kIters + iter) * 8 * kLineBytes;
    switch (step % 4) {
      case 0:
        op = workloads::wide_load(base, 8, true);
        return true;
      case 1:
        op = gpu::WarpOp::load_line(
            workloads::MiB(512) +
                (workloads::mix64(warp * 131 + iter) % 4096) * kLineBytes,
            true);
        return true;
      case 2:
        op = gpu::WarpOp::compute(12);
        return true;
      default:
        op = gpu::WarpOp::store_line(workloads::MiB(768) +
                                     static_cast<Addr>(warp) * kLineBytes);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    workloads::fill_smooth(image, workloads::MiB(16), 4096, 1.0, 3.0, 2.0);
    workloads::fill_smooth(image, workloads::MiB(512), 4096 * 32, 0.5, 5.0, 1.0);
  }
  void compute_output(gpu::MemView& view) const override {
    double acc = 0.0;
    for (unsigned i = 0; i < 4096; ++i)
      acc += view.read_f32(workloads::f32_addr(workloads::MiB(16), i));
    view.write_f32(workloads::MiB(896), static_cast<float>(acc));
  }
  std::vector<AddrRange> output_ranges() const override {
    return {{workloads::MiB(896), 4}};
  }
  std::vector<AddrRange> approximable_ranges() const override {
    return {{workloads::MiB(16), workloads::MiB(256)},
            {workloads::MiB(512), workloads::MiB(4)}};
  }
};

gpu::GpuTop::SchedulerFactory lazy_factory(const GpuConfig& cfg,
                                           const core::SchemeSpec& spec) {
  return core::make_scheduler_factory(cfg, spec);
}

TEST(GpuTop, BaselineRunCompletesAndConserves) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec;
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
  ASSERT_TRUE(top.run(20'000'000));
  EXPECT_TRUE(top.finished());
  EXPECT_GT(top.instructions(), 0u);

  // Conservation: every read received by every controller was served or
  // dropped; every write received was served.
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch) {
    const MemoryController& mc = top.controller(ch);
    EXPECT_EQ(mc.reads_received(), mc.reads_served() + mc.reads_dropped());
    EXPECT_EQ(mc.writes_received(), mc.writes_served());
    EXPECT_EQ(mc.reads_dropped(), 0u);  // No AMS in baseline.
  }
  EXPECT_TRUE(top.fmem().overlay().empty());
}

TEST(GpuTop, DeterministicAcrossRuns) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, cfg.scheme);
  auto run_once = [&] {
    gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
    top.run(20'000'000);
    return sim::collect_metrics(top, wl, "x", false);
  };
  const sim::RunMetrics a = run_once();
  const sim::RunMetrics b = run_once();
  EXPECT_EQ(a.core_cycles, b.core_cycles);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST(GpuTop, BaselineLazyMatchesPlainFrFcfs) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec;
  gpu::GpuTop lazy_top(cfg, wl, lazy_factory(cfg, spec));
  lazy_top.run(20'000'000);
  GpuConfig fr_cfg = cfg;
  fr_cfg.policy.name = "frfcfs";
  gpu::GpuTop fr_top(fr_cfg, wl,
                     core::make_scheduler_factory(fr_cfg, core::SchemeSpec{}));
  fr_top.run(20'000'000);
  EXPECT_EQ(lazy_top.core_cycles(), fr_top.core_cycles());
  sim::RunMetrics a = sim::collect_metrics(lazy_top, wl, "a", false);
  sim::RunMetrics b = sim::collect_metrics(fr_top, wl, "b", false);
  EXPECT_EQ(a.activations, b.activations);
}

TEST(GpuTop, AmsCoverageRespectsCap) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg.scheme);
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
  ASSERT_TRUE(top.run(20'000'000));
  const sim::RunMetrics m = sim::collect_metrics(top, wl, "ams", false);
  EXPECT_GT(m.drops, 0u);
  // Row-group drains may overshoot the cap by at most Th_RBL per channel.
  const double slack =
      static_cast<double>(cfg.scheme.static_th_rbl * cfg.num_channels) /
      static_cast<double>(m.reads_received);
  EXPECT_LE(m.coverage, cfg.scheme.coverage_cap + slack);
  EXPECT_FALSE(top.fmem().overlay().empty());
}

TEST(GpuTop, DmsReducesActivationsOnMini) {
  MiniWorkload wl;
  GpuConfig cfg;
  gpu::GpuTop base(cfg, wl, lazy_factory(cfg, core::SchemeSpec{}));
  base.run(20'000'000);
  const core::SchemeSpec dms = core::make_static_dms_spec(512, cfg.scheme);
  gpu::GpuTop delayed(cfg, wl, lazy_factory(cfg, dms));
  delayed.run(20'000'000);
  const auto acts = [](const gpu::GpuTop& t) {
    std::uint64_t n = 0;
    for (ChannelId ch = 0; ch < t.num_channels(); ++ch)
      n += t.controller(ch).channel().activations();
    return n;
  };
  EXPECT_LT(acts(delayed), acts(base));
}

TEST(GpuTop, MetricsIdentities) {
  MiniWorkload wl;
  GpuConfig cfg;
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, core::SchemeSpec{}));
  top.run(20'000'000);
  const sim::RunMetrics m = sim::collect_metrics(top, wl, "base", false);
  // Avg-RBL identity: column accesses / activations.
  EXPECT_NEAR(m.avg_rbl,
              static_cast<double>(m.dram_reads + m.dram_writes) /
                  static_cast<double>(m.activations),
              1e-9);
  // The RBL histogram accounts for every activation and every access.
  std::uint64_t acts = 0, accesses = 0;
  for (std::uint64_t k = 1; k <= m.rbl_hist.max_key(); ++k) {
    acts += m.rbl_hist.at(k);
    accesses += k * m.rbl_hist.at(k);
  }
  EXPECT_EQ(acts + m.rbl_hist.overflow(), m.activations);
  EXPECT_LE(accesses, m.dram_reads + m.dram_writes);
  EXPECT_GT(m.ipc, 0.0);
  EXPECT_GT(m.bwutil, 0.0);
  EXPECT_LE(m.bwutil, 1.0);
}

TEST(GpuTop, PinnedIssueAndStallCountsOnMini) {
  // Values measured before the SM issue path memoised crossbar waits and
  // parked stalled SMs. Nothing else reads l1_miss_stalls(), so these are the
  // witness that skipped polls and parked ticks leave stall accounting, issue
  // order and timing unchanged on every SM. The default 64-entry MSHRs stall
  // only on crossbar slots (loads and stores); 12 entries add MSHR-full
  // waits, which are never memoised or parked.
  struct Pin {
    std::uint32_t mshr_entries;
    core::SchemeKind kind;
    std::vector<std::uint64_t> l1_miss_stalls;  ///< Per SM.
    std::uint64_t instructions;
    Cycle core_cycles;
  };
  const Pin pins[] = {
      {64, core::SchemeKind::kBaseline,
       {15038, 6909,  3461,  13690, 3286,  6189,  17087, 19508, 8212,  11037,
        1499,  4703,  3836,  4366,  8367,  16675, 5741,  13660, 17698, 4712,
        12524, 14455, 10544, 12364, 11314, 3841,  14207, 5825,  14095, 10228},
       11520, 44032},
      {64, core::SchemeKind::kDynCombo,
       {6663, 1962, 3583, 4160, 1089, 1404, 4851, 7380, 1899, 4712,
        419,  737,  2745, 2654, 602,  3137, 4170, 2847, 6609, 699,
        3724, 1513, 3225, 6304, 3167, 1045, 4330, 749,  7258, 5229},
       11520, 39936},
      {12, core::SchemeKind::kBaseline,
       {10308, 26981, 20303, 16714, 19323, 6625,  16799, 25411, 18345, 11101,
        17835, 17579, 17662, 22009, 13528, 12415, 24444, 23120, 20437, 22013,
        18921, 17806, 16045, 18150, 23235, 21876, 21234, 17809, 19558, 17681},
       11520, 43008},
      {12, core::SchemeKind::kDynCombo,
       {23489, 37782, 26451, 24395, 32250, 19847, 25488, 31781, 33642, 18986,
        32029, 28862, 26647, 29121, 27776, 29801, 29218, 28801, 19338, 35455,
        20659, 23183, 23772, 15020, 31132, 40221, 31843, 24078, 19118, 16225},
       11520, 45056},
  };
  MiniWorkload wl;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(core::scheme_name(pin.kind)) + " mshr=" +
                 std::to_string(pin.mshr_entries));
    GpuConfig cfg;
    cfg.l1.mshr_entries = pin.mshr_entries;
    const core::SchemeSpec spec = core::make_scheme_spec(pin.kind, cfg.scheme);
    gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
    ASSERT_TRUE(top.run(20'000'000));
    std::vector<std::uint64_t> stalls;
    for (SmId s = 0; s < top.num_sms(); ++s) stalls.push_back(top.sm(s).l1_miss_stalls());
    EXPECT_EQ(stalls, pin.l1_miss_stalls);
    EXPECT_EQ(top.instructions(), pin.instructions);
    EXPECT_EQ(top.core_cycles(), pin.core_cycles);
  }
}

TEST(GpuTop, PinnedWorkCountsOnMini) {
  // Deterministic work counts of step(), pinned like the stall counts above
  // on the same configurations: a change that skips or adds per-cycle work
  // shows here as an exact diff, with no timing noise. Before the
  // controller cached stable answers, every decision reached the policy:
  // policy_decides was 182156, 200159, 169537 and 179972 on the four rows.
  // Under Baseline, which has no drop pass, the new split sums to the old
  // count exactly; under Dyn-DMS+AMS the rest are drop-pass visits skipped.
  struct Pin {
    std::uint32_t mshr_entries;
    core::SchemeKind kind;
    std::vector<std::uint64_t> counts;  ///< In WorkCounts field order.
  };
  const Pin pins[] = {
      {64,
       core::SchemeKind::kBaseline,
       {992985, 286665, 110267, 58795, 7324, 25855, 28791, 65081, 117075}},
      {64,
       core::SchemeKind::kDynCombo,
       {1040369, 95101, 100637, 49627, 5663, 15976, 28791, 94401, 95639}},
      {12,
       core::SchemeKind::kBaseline,
       {1097569, 165461, 110643, 56229, 3673, 15441, 28791, 65707, 103830}},
      {12,
       core::SchemeKind::kDynCombo,
       {1241323, 36707, 106503, 62307, 1445, 5518, 28791, 99754, 73288}},
  };
  MiniWorkload wl;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(core::scheme_name(pin.kind)) + " mshr=" +
                 std::to_string(pin.mshr_entries));
    GpuConfig cfg;
    cfg.l1.mshr_entries = pin.mshr_entries;
    const core::SchemeSpec spec = core::make_scheme_spec(pin.kind, cfg.scheme);
    gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
    ASSERT_TRUE(top.run(20'000'000));
    const gpu::GpuTop::WorkCounts& w = top.work_counts();
    const std::vector<std::uint64_t> counts = {
        w.sm_ticks,        w.sm_ticks_slept,          w.mc_ticks,       w.mc_ticks_skipped,
        w.backlog_retries, w.backlog_retries_skipped, w.request_packets,
        w.policy_decides,  w.decisions_reused};
    EXPECT_EQ(counts, pin.counts);
  }
}

TEST(GpuTop, SleepingSmsSatisfyTheParkPredicate) {
  // Steps a mini run cycle by cycle. After every step an SM is asleep exactly
  // when its next tick would be a parked tick, and each wake source — a free
  // crossbar slot, a reply, a due completion or timer — ends some sleep.
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kBaseline, cfg.scheme);
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
  std::vector<bool> was_asleep(top.num_sms(), false);
  std::uint64_t sleeps = 0, grant_wakes = 0, timer_wakes = 0, reply_wakes = 0;
  while (top.core_cycles() < 20'000'000) {
    top.step();
    const Cycle next = top.core_cycles() + 1;
    for (SmId s = 0; s < top.num_sms(); ++s) {
      const bool asleep = top.sm_sleeping(s);
      ASSERT_EQ(asleep, top.sm(s).parked(next, top.request_crossbar()))
          << "SM " << s << " after cycle " << top.core_cycles();
      if (asleep && !was_asleep[s]) ++sleeps;
      if (!asleep && was_asleep[s]) {
        // Only a grant frees a slot, and a due park_until() wakes on its own;
        // otherwise the wake was a reply.
        if (top.request_crossbar().can_push(s))
          ++grant_wakes;
        else if (top.sm(s).park_until() <= next)
          ++timer_wakes;
        else
          ++reply_wakes;
      }
      was_asleep[s] = asleep;
    }
    if ((top.core_cycles() & 1023) == 0 && top.finished()) break;
  }
  ASSERT_TRUE(top.finished());
  top.finalize();
  // Stepped every cycle, each core cycle is one tick or one slept tick per
  // SM, and each memory cycle one tick or one skip per channel.
  const gpu::GpuTop::WorkCounts& w = top.work_counts();
  EXPECT_EQ(w.sm_ticks + w.sm_ticks_slept, top.core_cycles() * top.num_sms());
  EXPECT_EQ(w.mc_ticks + w.mc_ticks_skipped, top.mem_cycles() * top.num_channels());
  EXPECT_GT(sleeps, 0u);
  EXPECT_GT(grant_wakes, 0u);
  EXPECT_GT(timer_wakes, 0u);
  EXPECT_GT(reply_wakes, 0u);
  for (SmId s = 0; s < top.num_sms(); ++s) EXPECT_FALSE(top.sm_sleeping(s));
}

TEST(GpuTop, L2CountsOneAccessPerAcceptedRequestPacket) {
  // A 4-entry L2 miss table makes request packets stall in the partition
  // backlog and retry. Only the attempt that serves a packet (hit, merge or
  // allocate) may count as an L2 access, so accesses equal the packets the
  // partitions took from the request crossbar.
  MiniWorkload wl;
  GpuConfig cfg;
  cfg.l2.mshr_entries = 4;
  const core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, cfg.scheme);
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
  ASSERT_TRUE(top.run(20'000'000));
  EXPECT_GT(top.work_counts().backlog_retries, 0u);
  std::uint64_t accesses = 0;
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch) {
    EXPECT_EQ(top.l2(ch).accesses(), top.l2(ch).hits() + top.l2(ch).misses());
    accesses += top.l2(ch).accesses();
  }
  EXPECT_EQ(accesses, top.request_crossbar().delivered());
  EXPECT_EQ(accesses, top.work_counts().request_packets);
}

TEST(Simulator, EndToEndSchemeOrderingOnScp) {
  // The paper's headline ordering on one real app: combo <= AMS < baseline
  // activations, and AMS must not hurt IPC.
  const auto wl = workloads::make_workload("SCP");
  const auto run = [&](core::SchemeKind kind) {
    sim::RunConfig config;
    config.spec = core::make_scheme_spec(kind, config.gpu.scheme);
    return sim::simulate(*wl, config);
  };
  const sim::RunMetrics base = run(core::SchemeKind::kBaseline);
  const sim::RunMetrics ams = run(core::SchemeKind::kStaticAms);
  const sim::RunMetrics combo = run(core::SchemeKind::kStaticCombo);
  EXPECT_LT(ams.activations, base.activations);
  EXPECT_LT(combo.activations, ams.activations);
  EXPECT_GE(ams.ipc, base.ipc);
  EXPECT_GT(ams.coverage, 0.05);
  EXPECT_GT(ams.app_error, 0.0);
  EXPECT_LT(ams.app_error, 0.25);
}

}  // namespace
}  // namespace lazydram
