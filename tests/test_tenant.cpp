// Multi-tenant front-end tests: the tenant spec grammar, the MixWorkload op
// multiplexer, single-tenant bit-identity with the plain single-workload
// path, tenant-tag preservation through coalescer/L2/MSHR/controller, a
// seeded conformance fuzzer proving per-tenant AMS coverage caps are never
// exceeded (cross-checked by the strict protocol checker's shadow counters),
// and the regression test for DMS stall-interval pairing when hits stream
// past a gated candidate.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "common/rng.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "core/scheme.hpp"
#include "dram/address.hpp"
#include "gpu/tenant.hpp"
#include "mem/controller.hpp"
#include "sim/simulator.hpp"
#include "telemetry/lifecycle.hpp"
#include "workloads/mix.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

using workloads::MixTenant;
using workloads::MixWorkload;

// ---------------------------------------------------------------------------
// Spec grammar.
// ---------------------------------------------------------------------------

TEST(TenantSpec, ParsesKernelsAndOptions) {
  const gpu::TenantSpec one = gpu::parse_tenant_spec("SCP");
  ASSERT_EQ(one.kernels.size(), 1u);
  EXPECT_EQ(one.kernels[0], "SCP");
  EXPECT_EQ(one.warps, 0u);
  EXPECT_EQ(one.repeat, 1u);
  EXPECT_TRUE(one.approx);
  EXPECT_LT(one.coverage_cap, 0.0);
  EXPECT_EQ(one.dms_delay_cap, kNeverCycle);

  const gpu::TenantSpec full = gpu::parse_tenant_spec(
      "CONS+MVT:warps=96,repeat=3,think=2000,approx=0,cap=0.05,delay_cap=256,name=client");
  ASSERT_EQ(full.kernels.size(), 2u);
  EXPECT_EQ(full.kernels[0], "CONS");
  EXPECT_EQ(full.kernels[1], "MVT");
  EXPECT_EQ(full.warps, 96u);
  EXPECT_EQ(full.repeat, 3u);
  EXPECT_EQ(full.think, 2000u);
  EXPECT_FALSE(full.approx);
  EXPECT_DOUBLE_EQ(full.coverage_cap, 0.05);
  EXPECT_EQ(full.dms_delay_cap, 256u);
  EXPECT_EQ(full.name, "client");

  const std::vector<gpu::TenantSpec> many =
      gpu::parse_tenant_specs("SCP;CONS:think=100;MVT:approx=0");
  ASSERT_EQ(many.size(), 3u);
  EXPECT_EQ(many[1].think, 100u);
  EXPECT_FALSE(many[2].approx);
}

TEST(TenantSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(gpu::parse_tenant_spec(""), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("NOPE_NOT_A_KERNEL"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP+"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP:bogus=1"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP:warps"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP:warps=abc"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP:warps=12junk"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP:repeat=0"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP:approx=2"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_spec("SCP:cap=1.5"), std::invalid_argument);
  EXPECT_THROW(gpu::parse_tenant_specs("SCP;;CONS"), std::invalid_argument);
}

TEST(TenantSet, QosInstallationRules) {
  // A single default tenant must stay on the legacy path: no budgets.
  gpu::TenantSet plain(gpu::parse_tenant_specs("SCP"));
  GpuConfig cfg;
  plain.apply_qos(cfg);
  EXPECT_TRUE(cfg.scheme.tenant_qos.empty());
  EXPECT_FALSE(plain.has_explicit_qos());

  // A single tenant WITH an explicit cap installs it.
  gpu::TenantSet capped(gpu::parse_tenant_specs("SCP:cap=0.03"));
  capped.apply_qos(cfg);
  ASSERT_EQ(cfg.scheme.tenant_qos.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.scheme.tenant_qos[0].coverage_cap, 0.03);

  // Multi-tenant sets always install one entry per tenant.
  gpu::TenantSet three(gpu::parse_tenant_specs("SCP;CONS:delay_cap=128;MVT"));
  GpuConfig cfg3;
  three.apply_qos(cfg3);
  ASSERT_EQ(cfg3.scheme.tenant_qos.size(), 3u);
  EXPECT_LT(cfg3.scheme.tenant_qos[0].coverage_cap, 0.0);  // Inherit global.
  EXPECT_EQ(cfg3.scheme.tenant_qos[1].dms_delay_cap, 128u);

  // Alone baselines carry the tenant's own spec at window bias 0.
  const auto alone = three.alone_workload(1);
  EXPECT_EQ(alone->num_tenants(), 1u);
  EXPECT_EQ(alone->tenant(0).name, three.spec(1).name);
  EXPECT_EQ(alone->tenant_of_addr(0), 0u);
}

// ---------------------------------------------------------------------------
// MixWorkload multiplexing.
// ---------------------------------------------------------------------------

TEST(MixWorkload, SingleDefaultTenantReplaysInnerOpStreamExactly) {
  const auto inner = workloads::make_workload("SCP");
  MixWorkload mix({MixTenant{.kernels = {"SCP"}}});
  ASSERT_EQ(mix.num_warps(), inner->num_warps());
  EXPECT_EQ(mix.num_tenants(), 1u);

  gpu::WarpOp a, b;
  for (unsigned w = 0; w < inner->num_warps(); ++w) {
    unsigned step = 0;
    for (;; ++step) {
      const bool ia = inner->op_at(w, step, a);
      const bool ib = mix.op_at(w, step, b);
      ASSERT_EQ(ia, ib) << "warp " << w << " step " << step;
      if (!ia) break;
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.cycles, b.cycles);
      ASSERT_EQ(a.num_addrs, b.num_addrs);
      ASSERT_EQ(a.approximable, b.approximable);
      for (unsigned i = 0; i < a.num_addrs; ++i) ASSERT_EQ(a.addrs[i], b.addrs[i]);
    }
    ASSERT_GT(step, 0u);
  }
}

TEST(MixWorkload, TenantsOwnDisjointWindowsAndWarpRanges) {
  MixWorkload mix(
      {MixTenant{.kernels = {"SCP"}}, MixTenant{.kernels = {"CONS"}, .approx = false}},
      7);
  ASSERT_EQ(mix.num_tenants(), 2u);
  EXPECT_EQ(mix.tenant_warp_base(0), 0u);
  EXPECT_EQ(mix.tenant_warp_base(1), mix.tenant_warps(0));
  EXPECT_EQ(mix.num_warps(), mix.tenant_warps(0) + mix.tenant_warps(1));

  // Every op's addresses land in the issuing tenant's window, and a
  // precise-only tenant's loads are never annotated approximable.
  gpu::WarpOp op;
  for (unsigned w = 0; w < mix.num_warps(); ++w) {
    const TenantId t = mix.tenant_of_warp(w);
    for (unsigned step = 0; mix.op_at(w, step, op); ++step) {
      if (op.kind == gpu::WarpOp::Kind::kCompute) continue;
      for (unsigned i = 0; i < op.num_addrs; ++i)
        ASSERT_EQ(mix.tenant_of_addr(op.addrs[i]), t)
            << "warp " << w << " step " << step;
      if (t == 1) {
        ASSERT_FALSE(op.approximable);
      }
    }
  }

  // Approximable annotations exist only inside tenant 0's window.
  for (const workloads::AddrRange& r : mix.approximable_ranges()) {
    EXPECT_EQ(mix.tenant_of_addr(r.base), 0u);
    EXPECT_EQ(mix.tenant_of_addr(r.base + r.bytes - 1), 0u);
  }
}

TEST(MixWorkload, ThinkTimeIsDeterministicAndStrictlyAddsArrivalGaps) {
  MixWorkload a({MixTenant{.kernels = {"SCP"}, .repeat = 2, .think = 500}}, 42);
  MixWorkload b({MixTenant{.kernels = {"SCP"}, .repeat = 2, .think = 500}}, 42);
  MixWorkload c({MixTenant{.kernels = {"SCP"}, .repeat = 2, .think = 500}}, 43);

  gpu::WarpOp oa, ob, oc;
  ASSERT_TRUE(a.op_at(0, 0, oa));
  ASSERT_TRUE(b.op_at(0, 0, ob));
  ASSERT_TRUE(c.op_at(0, 0, oc));
  // Iteration 0 opens with a think op (staggered initial arrivals).
  EXPECT_EQ(oa.kind, gpu::WarpOp::Kind::kCompute);
  EXPECT_EQ(oa.cycles, ob.cycles);  // Same seed: identical gap.
  EXPECT_GE(oa.cycles, 1u);
  // A different seed changes at least one of the first few warps' gaps.
  bool any_differs = oa.cycles != oc.cycles;
  for (unsigned w = 1; w < 8 && !any_differs; ++w) {
    ASSERT_TRUE(a.op_at(w, 0, oa));
    ASSERT_TRUE(c.op_at(w, 0, oc));
    any_differs = oa.cycles != oc.cycles;
  }
  EXPECT_TRUE(any_differs);

  // repeat=2 doubles the kernel ops; streams terminate.
  unsigned n = 0;
  gpu::WarpOp op;
  while (a.op_at(0, n, op)) ++n;
  MixWorkload once({MixTenant{.kernels = {"SCP"}, .repeat = 1, .think = 500}}, 42);
  unsigned n1 = 0;
  while (once.op_at(0, n1, op)) ++n1;
  EXPECT_EQ(n, 2 * n1);
}

// ---------------------------------------------------------------------------
// Single-tenant TenantSet is bit-identical to the single-workload path.
// ---------------------------------------------------------------------------

TEST(TenantIdentity, OneTenantRunMatchesSingleWorkloadRunBitExactly) {
  const auto inner = workloads::make_workload("SCP");
  gpu::TenantSet set(gpu::parse_tenant_specs("SCP"));

  sim::RunConfig rc;
  rc.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, rc.gpu.scheme);
  rc.compute_error = false;
  sim::RunConfig rc_mix = rc;
  set.apply_qos(rc_mix.gpu);  // Must be a no-op for one default tenant.
  EXPECT_TRUE(rc_mix.gpu.scheme.tenant_qos.empty());

  const sim::RunMetrics a = sim::simulate(*inner, rc);
  const sim::RunMetrics b = sim::simulate(set.workload(), rc_mix);
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.core_cycles, b.core_cycles);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_EQ(a.warps_finish_core_cycle, b.warps_finish_core_cycle);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.reads_received, b.reads_received);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.avg_rbl, b.avg_rbl);
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
  EXPECT_DOUBLE_EQ(a.avg_delay, b.avg_delay);
  EXPECT_DOUBLE_EQ(a.avg_th_rbl, b.avg_th_rbl);
  EXPECT_DOUBLE_EQ(a.total_energy_nj, b.total_energy_nj);
  EXPECT_DOUBLE_EQ(a.avg_read_latency_mem_cycles, b.avg_read_latency_mem_cycles);
  EXPECT_EQ(a.read_latency_p50, b.read_latency_p50);
  EXPECT_EQ(a.read_latency_p99, b.read_latency_p99);
  // Single-tenant runs surface no per-tenant slices (legacy output shape).
  EXPECT_TRUE(b.tenants.empty());
}

TEST(TenantIdentity, RayErrorIsTheSameAloneAndAsATenant) {
  // RAY's frame lines hold one output float each; the aggregate and the
  // per-tenant errors must both use that definition, wherever RAY runs.
  const auto ray = workloads::make_workload("RAY");
  const workloads::AddrRange tex = ray->approximable_ranges().front();
  // Scaled copies of every 7th texture line stand in for VP predictions.
  auto approximate = [&](gpu::FunctionalMemory& fmem, Addr bias) {
    for (Addr line = tex.base; line < tex.base + tex.bytes; line += 7 * kLineBytes) {
      std::array<std::uint8_t, kLineBytes> bytes;
      fmem.image().read(line + bias, bytes.data(), kLineBytes);
      for (unsigned i = 0; i < kLineBytes; i += 4) {
        float v;
        std::memcpy(&v, &bytes[i], 4);
        v *= 1.5f;
        std::memcpy(&bytes[i], &v, 4);
      }
      fmem.record_approx_line(line + bias, bytes.data());
    }
  };

  gpu::FunctionalMemory alone;
  ray->init_memory(alone.image());
  approximate(alone, 0);
  const double expected = ray->application_error(alone);
  ASSERT_GT(expected, 0.0);

  gpu::TenantSet single(gpu::parse_tenant_specs("RAY"));
  EXPECT_EQ(single.workload().application_error(alone), expected);

  gpu::TenantSet pair(gpu::parse_tenant_specs("CONS;RAY"));
  gpu::FunctionalMemory shared;
  pair.workload().init_memory(shared.image());
  approximate(shared, MixWorkload::tenant_base(1));
  const MixWorkload::TenantErrors errors = pair.workload().tenant_application_errors(shared);
  ASSERT_EQ(errors.tenants.size(), 2u);
  EXPECT_EQ(errors.tenants[0], 0.0);
  EXPECT_EQ(errors.tenants[1], expected);
  EXPECT_EQ(errors.total, pair.workload().application_error(shared));
}

// ---------------------------------------------------------------------------
// Tenant tags survive coalescer / L2 / MSHR / pending queue.
// ---------------------------------------------------------------------------

TEST(TenantTags, LifecycleRecordsAgreeWithAddressOwnership) {
  gpu::TenantSet set(gpu::parse_tenant_specs("SCP:warps=60;CONS:warps=60,approx=0"), 5);
  sim::RunConfig rc;
  rc.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, rc.gpu.scheme);
  set.apply_qos(rc.gpu);

  const core::SchemeSpec spec = rc.spec;
  const GpuConfig cfg = rc.gpu;
  telemetry::Telemetry tele;
  tele.enable_lifecycle(1);
  tele.lifecycle()->set_retain(true);
  gpu::GpuTop top(cfg, set.workload(),
                  core::make_scheduler_factory(cfg, spec), RowPolicy::kOpenRow, &tele);
  ASSERT_TRUE(top.run());

  const MixWorkload& mix = set.workload();
  std::uint64_t per_tenant[2] = {0, 0};
  for (const telemetry::RequestLifecycle& r : tele.lifecycle()->completed()) {
    ASSERT_LT(r.tenant, 2u);
    // The tag carried through icnt/L2/MSHR/queue must equal the owner
    // derivable from the line address (windows are disjoint).
    ASSERT_EQ(r.tenant, mix.tenant_of_addr(r.line_addr));
    ++per_tenant[r.tenant];
  }
  EXPECT_GT(per_tenant[0], 0u);
  EXPECT_GT(per_tenant[1], 0u);

  // Controller-side accounting reconciles: per-tenant counters sum to the
  // channel aggregates, bucket by bucket for the latency histograms.
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch) {
    const MemoryController& mc = top.controller(ch);
    ASSERT_EQ(mc.num_tenants(), 2u);
    std::uint64_t recv = 0, served = 0, dropped = 0;
    for (TenantId t = 0; t < 2; ++t) {
      recv += mc.tenant_reads_received(t);
      served += mc.tenant_reads_served(t);
      dropped += mc.tenant_reads_dropped(t);
    }
    EXPECT_EQ(recv, mc.reads_received());
    EXPECT_EQ(served, mc.reads_served());
    EXPECT_EQ(dropped, mc.reads_dropped());
    const Histogram& agg = mc.read_latency_hist();
    for (std::uint64_t k = 0; k < agg.bucket_count(); ++k) {
      EXPECT_EQ(mc.tenant_read_latency_hist(0).at(k) + mc.tenant_read_latency_hist(1).at(k),
                agg.at(k))
          << "channel " << ch << " bucket " << k;
    }
  }

  // The precise-only tenant (approx=0) must never have been dropped.
  std::uint64_t t1_drops = 0;
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch)
    t1_drops += top.controller(ch).tenant_reads_dropped(1);
  EXPECT_EQ(t1_drops, 0u);
}

// ---------------------------------------------------------------------------
// Seeded conformance fuzzer: per-tenant AMS caps under the strict checker.
// ---------------------------------------------------------------------------

TEST(TenantCapFuzz, PerTenantCoverageCapsHoldUnderStrictChecker) {
  GpuConfig cfg;
  AddressMapper mapper(cfg);
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kStaticCombo, cfg.scheme);

  // Three budgets: tight, inherit-global (0.10), and zero (never drop).
  std::vector<TenantQos> qos(3);
  qos[0].coverage_cap = 0.04;
  qos[2].coverage_cap = 0.0;
  const double resolved_caps[3] = {0.04, cfg.scheme.coverage_cap, 0.0};

  for (const std::uint64_t seed : {0xA11CEULL, 0xB0BULL, 0xCAFEULL, 0xD00DULL}) {
    std::unique_ptr<Scheduler> sched = core::make_scheduler(cfg, spec);
    auto* lazy = dynamic_cast<core::LazyScheduler*>(sched.get());
    ASSERT_NE(lazy, nullptr);
    lazy->set_ams_ready(true);
    lazy->set_tenant_qos(qos);
    const core::AmsUnit& ams = lazy->ams();

    check::CheckerOptions opts;
    opts.mode = check::CheckMode::kStrict;
    opts.ams_allowed = true;
    opts.coverage_cap = cfg.scheme.coverage_cap;
    opts.tenant_coverage_caps.assign(resolved_caps, resolved_caps + 3);
    check::ProtocolChecker checker(cfg, 0, opts);

    MemoryController mc(cfg, 0, mapper, std::move(sched));
    mc.set_checker(&checker);

    Rng rng(seed);
    RequestId id = 1;
    ASSERT_NO_THROW({
      for (Cycle now = 0; now < 200'000; ++now) {
        if (mc.can_accept() && rng.next_bool(0.4)) {
          MemRequest r;
          r.id = id++;
          const BankId bank =
              static_cast<BankId>(rng.next_below(cfg.banks_per_channel));
          const RowId row = static_cast<RowId>(rng.next_below(64));
          r.line_addr = mapper.compose(
              0, bank, row,
              static_cast<std::uint32_t>(rng.next_below(16) * kLineBytes));
          // Rows are single-tenant in real mixes; derive ownership from the
          // (bank, row) coordinate so row groups never mix tenants.
          r.tenant = static_cast<TenantId>((row + bank) % 3);
          r.kind = rng.next_bool(0.1) ? AccessKind::kWrite : AccessKind::kRead;
          r.approximable = r.is_read() && rng.next_bool(0.8);
          mc.enqueue(r, now);
        }
        mc.tick(now);
        while (mc.pop_reply(now)) {
        }
      }
    }) << "strict checker violation, seed " << seed;

    EXPECT_EQ(checker.violation_count(), 0u);
    EXPECT_GT(ams.reads_dropped(), 0u) << "fuzz produced no drops; seed " << seed;

    for (TenantId t = 0; t < 3; ++t) {
      const std::uint64_t reads = ams.tenant_reads_received(t);
      const std::uint64_t drops = ams.tenant_reads_dropped(t);
      ASSERT_GT(reads, 0u);
      // A new row group is only admitted while the tenant's coverage is
      // strictly below its cap; one admitted group (<= Th_RBL = 8 members)
      // may then drain past it, so the bound is cap plus that group.
      EXPECT_LE(static_cast<double>(drops),
                resolved_caps[t] * static_cast<double>(reads) + 8.0)
          << "tenant " << t << " seed " << seed;
    }
    // Cap 0 means "never drop", with no one-group grace: the pre-check
    // fails even for the first group.
    EXPECT_EQ(ams.tenant_reads_dropped(2), 0u);
    // The global cap stays necessary: aggregate coverage within one group
    // of the global budget.
    EXPECT_LE(ams.coverage(),
              cfg.scheme.coverage_cap + 8.0 / static_cast<double>(ams.reads_received()));
  }
}

// ---------------------------------------------------------------------------
// Regression: DMS stall-interval pairing when hits stream past a gated miss.
// ---------------------------------------------------------------------------

// A row-buffer hit served while another request is age-gated on the same
// bank must not close (and fragment) the gated request's stall interval.
// Before the fix, the hit-serve path ended whatever interval was open on the
// bank; the gated candidate's next decide() then reopened it, splitting one
// gate into several and mis-pairing stall_begin_ bookkeeping.
TEST(StallPairing, HitServedMidGateKeepsOneInterval) {
  GpuConfig cfg;
  AddressMapper mapper(cfg);
  // Static DMS only (no AMS): with a constant delay every request has at
  // most one age gate, so any fragmentation is the bug.
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kStaticDms, cfg.scheme);
  ASSERT_EQ(spec.static_delay, 128u);
  std::unique_ptr<Scheduler> sched = core::make_scheduler(cfg, spec);
  auto* lazy = dynamic_cast<core::LazyScheduler*>(sched.get());
  ASSERT_NE(lazy, nullptr);
  telemetry::LifecycleCollector lc(nullptr, 1);
  lc.set_retain(true);
  lazy->set_lifecycle(&lc);
  MemoryController mc(cfg, 0, mapper, std::move(sched));
  mc.set_lifecycle(&lc);

  const auto line = [&](RowId row, std::uint32_t col) {
    return mapper.compose(0, 0, row, col * kLineBytes);
  };
  // Each record opens before its enqueue and closes when its reply is
  // popped, as GpuTop does.
  const auto read = [&](RequestId id, RowId row, std::uint32_t col, Cycle now) {
    MemRequest r;
    r.id = id;
    r.line_addr = line(row, col);
    lc.on_request_created(id, r.line_addr, 0, 0, now);
    mc.enqueue(r, now);
  };

  for (Cycle now = 0; now < 2'000; ++now) {
    // R0 opens row 7 (gated 128 cycles itself, then served).
    if (now == 0) read(1, 7, 0, now);
    // A: row-5 miss while row 7 is open — gated from ~enqueue to
    // enqueue + 128, with hits streaming past it the whole time.
    if (now == 300) read(2, 5, 0, now);
    // H1/H2: row-7 hits arriving and serving inside A's gate window.
    if (now == 310) read(3, 7, 1, now);
    if (now == 350) read(4, 7, 2, now);
    mc.tick(now);
    while (const std::optional<MemReply> reply = mc.pop_reply(now)) {
      lc.on_reply_pop(reply->id, now);
      lc.on_warp_wakeup(reply->id, now);
    }
  }
  ASSERT_TRUE(mc.idle());

  const telemetry::RequestLifecycle* rec_a = nullptr;
  const telemetry::RequestLifecycle* rec_h1 = nullptr;
  for (const telemetry::RequestLifecycle& r : lc.completed()) {
    if (r.id == 2) rec_a = &r;
    if (r.id == 3) rec_h1 = &r;
  }
  ASSERT_NE(rec_a, nullptr);
  ASSERT_NE(rec_h1, nullptr);

  // The hits really were served inside A's gate window...
  ASSERT_EQ(rec_a->gates.size(), 1u) << "gate interval was fragmented";
  const telemetry::GateInterval& g = rec_a->gates[0];
  EXPECT_GT(rec_h1->cas_mem, g.begin);
  EXPECT_LT(rec_h1->cas_mem, g.end);
  // ...and A's one interval covers its whole age gate: decide() first sees A
  // once the bank finishes R0's burst, and the gate flips at enqueue + 128.
  EXPECT_EQ(g.end, rec_a->enqueue_mem + 128);
  EXPECT_EQ(rec_a->gated_cycles, g.end - g.begin);
  // Hits are never gated under plain DMS.
  EXPECT_TRUE(rec_h1->gates.empty());
}

}  // namespace
}  // namespace lazydram
