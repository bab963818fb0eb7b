// SchedulerRegistry tests: built-in policy catalog, capability flags of the
// constructed schedulers, the policy-spec grammar, label resolution, and —
// the regression for the old duplicated construction switches — equality of
// every construction route (cfg.policy.name and the $LAZYDRAM_POLICY
// environment override) on a real workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "mem/scheduler.hpp"
#include "sim/simulator.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

using core::SchedulerRegistry;

GpuConfig cfg_for(const std::string& policy) {
  GpuConfig cfg;
  cfg.policy.name = policy;
  cfg.validate();
  return cfg;
}

TEST(SchedulerRegistry, BuiltinsAreRegistered) {
  SchedulerRegistry& reg = SchedulerRegistry::instance();
  for (const char* name : {"lazy", "frfcfs", "fcfs", "bliss", "batch-rr", "autotune"}) {
    EXPECT_TRUE(reg.known(name)) << name;
    EXPECT_FALSE(reg.description(name).empty()) << name;
  }
  EXPECT_FALSE(reg.known("nonesuch"));
  const std::vector<std::string> names = reg.names();
  EXPECT_GE(names.size(), 6u);
  EXPECT_NE(std::find(names.begin(), names.end(), "bliss"), names.end());
}

TEST(SchedulerRegistry, LabelsMatchReportConventions) {
  SchedulerRegistry& reg = SchedulerRegistry::instance();
  EXPECT_EQ(reg.label("frfcfs"), "FR-FCFS");
  EXPECT_EQ(reg.label("fcfs"), "FCFS");
  EXPECT_EQ(reg.label("bliss"), "BLISS");
  EXPECT_EQ(reg.label("batch-rr"), "Batch-RR");
  EXPECT_EQ(reg.label("autotune"), "Autotune-DMS");

  // Lazy runs keep their scheme-derived labels so existing reports and the
  // fig-12 sweep keys stay stable.
  GpuConfig cfg;
  const core::SchemeSpec dyn =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, cfg.scheme);
  EXPECT_EQ(core::run_label(cfg, dyn), core::scheme_name(dyn.kind));
  EXPECT_EQ(core::run_label(cfg_for("frfcfs"), core::SchemeSpec{}), "FR-FCFS");
  EXPECT_EQ(core::policy_name(GpuConfig{}), "lazy");
}

// The static traits are what make the controller's memos and the checker's
// hit-first rule sound per policy; pin them per built-in.
TEST(SchedulerRegistry, ConstructedSchedulersReportExpectedCapabilities) {
  const core::SchemeSpec base;
  struct Expect {
    const char* name;
    bool hit_first;
    bool memo_safe;
  };
  for (const Expect& e : {Expect{"frfcfs", true, true}, Expect{"fcfs", false, true},
                          Expect{"bliss", false, false}, Expect{"batch-rr", false, true},
                          Expect{"autotune", true, true}, Expect{"lazy", true, true}}) {
    const std::unique_ptr<Scheduler> s = core::make_scheduler(cfg_for(e.name), base);
    ASSERT_NE(s, nullptr) << e.name;
    EXPECT_EQ(s->traits().hit_first, e.hit_first) << e.name;
    EXPECT_EQ(s->traits().memo_safe, e.memo_safe) << e.name;
    EXPECT_FALSE(s->may_drop()) << e.name;  // Only lazy+AMS can drop.
  }
  // Lazy resolves to the LazyScheduler (scheme configured by the spec).
  const std::unique_ptr<Scheduler> lazy = core::make_scheduler(GpuConfig{}, base);
  EXPECT_NE(dynamic_cast<core::LazyScheduler*>(lazy.get()), nullptr);
}

TEST(SchedulerRegistry, DecisionSentinelsNeverAliasLiveRequests) {
  // Request ids start at 1 but 0 is representable; the kNone sentinel must be
  // the all-ones pattern so a stale dereference trips immediately.
  EXPECT_EQ(Decision::none().req_id, kInvalidRequest);
  EXPECT_EQ(Decision::gated(123).req_id, kInvalidRequest);
  EXPECT_EQ(Decision::gated(123).none_until, 123u);
  EXPECT_NE(kInvalidRequest, RequestId{0});
}

TEST(PolicySpec, ParsesNamesAndKeys) {
  GpuConfig cfg;
  std::string err;
  ASSERT_TRUE(core::parse_policy_spec("bliss:threshold=8,interval=1024", cfg, &err)) << err;
  EXPECT_EQ(cfg.policy.name, "bliss");
  EXPECT_EQ(cfg.policy.bliss_threshold, 8u);
  EXPECT_EQ(cfg.policy.bliss_clear_interval, 1024u);

  ASSERT_TRUE(core::parse_policy_spec("batch-rr:cap=2", cfg, &err)) << err;
  EXPECT_EQ(cfg.policy.name, "batch-rr");
  EXPECT_EQ(cfg.policy.rr_cap, 2u);

  ASSERT_TRUE(
      core::parse_policy_spec("autotune:min=64,max=512,step=32,window=2048,tol=0.9", cfg, &err))
      << err;
  EXPECT_EQ(cfg.policy.name, "autotune");
  EXPECT_EQ(cfg.policy.tune_min_delay, 64u);
  EXPECT_EQ(cfg.policy.tune_max_delay, 512u);
  EXPECT_EQ(cfg.policy.tune_step, 32u);
  EXPECT_EQ(cfg.policy.tune_window, 2048u);
  EXPECT_DOUBLE_EQ(cfg.policy.tune_tolerance, 0.9);

  ASSERT_TRUE(core::parse_policy_spec("frfcfs", cfg, &err)) << err;
  EXPECT_EQ(cfg.policy.name, "frfcfs");
}

TEST(PolicySpec, RejectsBadSpecsWithoutTouchingConfig) {
  GpuConfig cfg;
  ASSERT_TRUE(core::parse_policy_spec("bliss:threshold=8", cfg));
  const GpuConfig before = cfg;

  std::string err;
  for (const char* bad :
       {"", "nonesuch", "bliss:threshold=0", "bliss:threshold=abc", "bliss:cap=4",
        "batch-rr:cap=", "autotune:min=512,max=64", "autotune:tol=1.5",
        "autotune:tol=0", "frfcfs:threshold=4", "bliss:threshold",
        // Counts go through the knob parser: no sign, no wrap, no saturation.
        "bliss:threshold=-1", "batch-rr:cap=-2", "bliss:interval=99999999999999999999999",
        "bliss:threshold=4294967296"}) {
    err.clear();
    EXPECT_FALSE(core::parse_policy_spec(bad, cfg, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
    // A rejected spec leaves the previously committed policy fully intact.
    EXPECT_EQ(cfg.policy.name, before.policy.name) << bad;
    EXPECT_EQ(cfg.policy.bliss_threshold, before.policy.bliss_threshold) << bad;
  }
}

// The regression for the old duplicated construction switches: the config
// name and the environment override must build the exact same scheduler
// and produce bit-identical runs.
TEST(SchedulerRegistry, AllConstructionRoutesAgree) {
  const auto wl = workloads::make_workload("SCP");
  ASSERT_NE(wl, nullptr);

  const auto run = [&](sim::RunConfig rc) {
    rc.compute_error = false;
    return sim::simulate(*wl, rc);
  };

  sim::RunConfig via_name;
  via_name.gpu.policy.name = "fcfs";
  const sim::RunMetrics a = run(via_name);

  ASSERT_EQ(::setenv("LAZYDRAM_POLICY", "fcfs", 1), 0);
  const sim::RunMetrics b = run(sim::RunConfig{});  // Name empty: env applies.
  ASSERT_EQ(::unsetenv("LAZYDRAM_POLICY"), 0);

  for (const sim::RunMetrics* m : {&a, &b}) EXPECT_EQ(m->scheme, "FCFS");
  EXPECT_EQ(b.core_cycles, a.core_cycles);
  EXPECT_EQ(b.mem_cycles, a.mem_cycles);
  EXPECT_EQ(b.instructions, a.instructions);
  EXPECT_EQ(b.activations, a.activations);
  EXPECT_EQ(b.dram_reads, a.dram_reads);
  EXPECT_EQ(b.dram_writes, a.dram_writes);
}

TEST(SchedulerRegistry, ExplicitConfigNameBeatsEnvironment) {
  const auto wl = workloads::make_workload("SCP");
  ASSERT_NE(wl, nullptr);
  sim::RunConfig rc;
  rc.gpu.policy.name = "frfcfs";
  rc.compute_error = false;
  ASSERT_EQ(::setenv("LAZYDRAM_POLICY", "fcfs", 1), 0);
  const sim::RunMetrics m = sim::simulate(*wl, rc);
  ASSERT_EQ(::unsetenv("LAZYDRAM_POLICY"), 0);
  EXPECT_EQ(m.scheme, "FR-FCFS");
}

TEST(SchedulerRegistry, RejectedEnvSpecFallsBackToLazy) {
  const auto wl = workloads::make_workload("SCP");
  ASSERT_NE(wl, nullptr);
  sim::RunConfig rc;
  rc.compute_error = false;
  ASSERT_EQ(::setenv("LAZYDRAM_POLICY", "nonesuch:oops", 1), 0);
  const sim::RunMetrics m = sim::simulate(*wl, rc);  // Warns, keeps "lazy".
  ASSERT_EQ(::unsetenv("LAZYDRAM_POLICY"), 0);
  rc.gpu.policy.name.clear();
  const sim::RunMetrics base = sim::simulate(*wl, rc);
  EXPECT_EQ(m.scheme, base.scheme);
  EXPECT_EQ(m.core_cycles, base.core_cycles);
  EXPECT_EQ(m.activations, base.activations);
}

// Each new policy must complete a real workload end-to-end under its registry
// name, conserve requests, and surface its registry label in the metrics.
TEST(SchedulerRegistry, NewPoliciesCompleteRealWorkloads) {
  const auto wl = workloads::make_workload("SCP");
  ASSERT_NE(wl, nullptr);
  struct Case {
    const char* spec;
    const char* label;
  };
  for (const Case& c : {Case{"bliss:threshold=4,interval=4096", "BLISS"},
                        Case{"batch-rr:cap=4", "Batch-RR"},
                        Case{"autotune:window=2048", "Autotune-DMS"}}) {
    sim::RunConfig rc;
    std::string err;
    ASSERT_TRUE(core::parse_policy_spec(c.spec, rc.gpu, &err)) << err;
    rc.compute_error = false;
    const sim::RunMetrics m = sim::simulate(*wl, rc);
    ASSERT_TRUE(m.finished) << c.spec;
    EXPECT_EQ(m.scheme, c.label);
    EXPECT_GT(m.instructions, 0u) << c.spec;
    EXPECT_EQ(m.drops, 0u) << c.spec;  // None of the arena rivals drops reads.
    EXPECT_GT(m.activations, 0u) << c.spec;
  }
}

}  // namespace
}  // namespace lazydram
