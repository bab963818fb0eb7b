// Event-wheel run-loop tests: the wheel on one lane and on four worker lanes
// must be bit-identical to a per-cycle reference loop (GpuTop::step() every
// core cycle) in every metric, and lanes must be byte-identical in every
// trace/report output — fast-forwarding and sharding are execution
// strategies, never model changes. Also home to the stale-memo regression
// (DMS delay changes must invalidate the controller's bank horizon memos),
// checked against the golden model.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/golden.hpp"
#include "check/recorder.hpp"
#include "common/config.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "core/scheme.hpp"
#include "dram/address.hpp"
#include "gpu/gpu_top.hpp"
#include "mem/controller.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workloads/mix.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

void expect_metrics_equal(const sim::RunMetrics& a, const sim::RunMetrics& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.core_cycles, b.core_cycles);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.reads_received, b.reads_received);
  EXPECT_DOUBLE_EQ(a.avg_rbl, b.avg_rbl);
  EXPECT_DOUBLE_EQ(a.total_energy_nj, b.total_energy_nj);
  EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
  EXPECT_DOUBLE_EQ(a.avg_delay, b.avg_delay);
  EXPECT_DOUBLE_EQ(a.avg_th_rbl, b.avg_th_rbl);
  EXPECT_DOUBLE_EQ(a.bwutil, b.bwutil);
}

sim::RunMetrics run_sharded(const workloads::Workload& wl, sim::RunConfig config,
                            unsigned shard) {
  config.gpu.shard_threads = shard;
  config.ignore_env_outputs = true;
  return sim::simulate(wl, config);
}

// The per-cycle reference: step() every core cycle, with finished() polled
// every 1024th cycle — the exit rule the wheel keeps — then the same
// finalize and metric collection a simulate() run ends with.
sim::RunMetrics run_reference(const workloads::Workload& wl,
                              const sim::RunConfig& config) {
  const GpuConfig& cfg = config.gpu;
  gpu::GpuTop top(cfg, wl, core::make_scheduler_factory(cfg, config.spec),
                  config.row_policy);
  while (top.core_cycles() < config.max_core_cycles) {
    top.step();
    if ((top.core_cycles() & 1023) == 0 && top.finished()) break;
  }
  top.finalize();
  return sim::collect_metrics(top, wl, core::run_label(cfg, config.spec),
                              config.compute_error);
}

void expect_lanes_match_reference(const workloads::Workload& wl,
                                  const sim::RunConfig& config,
                                  const std::string& what) {
  const sim::RunMetrics reference = run_reference(wl, config);
  expect_metrics_equal(reference, run_sharded(wl, config, 1), what + " (wheel)");
  expect_metrics_equal(reference, run_sharded(wl, config, 4), what + " (4 lanes)");
}

// The driver guarantee, proven rather than assumed: for every scheme of the
// paper's matrix on three workloads, the serial event wheel (one lane) and
// four worker lanes produce metrics bit-identical to the per-cycle
// reference loop.
TEST(Sharding, LockstepAcrossSchemesAndWorkloads) {
  for (const char* name : {"SCP", "CONS", "MVT"}) {
    const auto wl = workloads::make_workload(name);
    ASSERT_NE(wl, nullptr);
    for (const core::SchemeKind kind : core::all_schemes()) {
      sim::RunConfig config;
      config.spec = core::make_scheme_spec(kind, config.gpu.scheme);
      config.compute_error = false;
      expect_lanes_match_reference(*wl, config,
                                   std::string(name) + " / " + core::scheme_name(kind));
    }
  }
}

// Multi-tenant front-end over the wheel: three tenants with distinct
// kernels, budgets and think times, run under the full Dyn-DMS+AMS scheme
// with per-tenant QoS caps.
TEST(Sharding, MixWorkloadLockstep) {
  std::vector<workloads::MixTenant> tenants(3);
  tenants[0].kernels = {"SCP"};
  tenants[0].warps = 60;
  tenants[0].coverage_cap = 0.05;
  tenants[1].kernels = {"CONS"};
  tenants[1].warps = 60;
  tenants[1].think = 2000;
  tenants[2].kernels = {"MVT"};
  tenants[2].warps = 60;
  tenants[2].approx = false;
  const workloads::MixWorkload mix(tenants, /*seed=*/7);

  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
  config.compute_error = false;
  for (const workloads::MixTenant& t : tenants) {
    TenantQos qos;
    qos.coverage_cap = t.coverage_cap;
    qos.dms_delay_cap = t.dms_delay_cap;
    config.gpu.scheme.tenant_qos.push_back(qos);
  }
  expect_lanes_match_reference(mix, config, "mix");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The JSON report embeds host wall-clock profile fields; excise that one
// flat object before comparing (everything else must match to the byte).
std::string strip_profile(std::string json) {
  const std::size_t key = json.find("\"profile\"");
  if (key == std::string::npos) return json;
  const std::size_t end = json.find('}', key);
  if (end == std::string::npos) return json;
  json.erase(key, end - key + 2);  // Includes the trailing "},".
  return json;
}

// Telemetry is drained from per-lane buffers in (cycle, channel) order at
// each barrier, so the JSONL trace and the JSON report (windows, stats,
// lifecycle) are byte-identical between one lane and four.
TEST(Sharding, ShardedTraceAndReportByteIdentical) {
  const auto wl = workloads::make_workload("SCP");
  ASSERT_NE(wl, nullptr);

  std::string traces[2], reports[2];
  const unsigned shards[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const std::string base =
        ::testing::TempDir() + "shard" + std::to_string(shards[i]);
    sim::RunConfig config;
    config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
    config.compute_error = false;
    config.ignore_env_outputs = true;
    config.gpu.shard_threads = shards[i];
    config.trace_path = base + ".trace.jsonl";
    config.json_report_path = base + ".report.json";
    const sim::RunMetrics m = sim::simulate(*wl, config);
    ASSERT_TRUE(m.finished);
    traces[i] = read_file(config.trace_path);
    reports[i] = read_file(config.json_report_path);
    std::remove(config.trace_path.c_str());
    std::remove(config.json_report_path.c_str());
  }
  ASSERT_FALSE(traces[0].empty());
  ASSERT_FALSE(reports[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(strip_profile(reports[0]), strip_profile(reports[1]));
}

// Regression (stale horizon memos): the controller memoizes per-bank retry
// and none-until horizons plus pass-level wakes under the DMS delay in force
// when they were recorded. Dyn-DMS moves that delay at window boundaries —
// including large downward jumps at search restarts — and a memo recorded
// under the old delay would otherwise park a newly-eligible bank past its
// legal service cycle. The fix clears every memo on a delay edge; with it,
// every serve matches the golden model's replay of the recorded stream
// (which re-derives DMS gating from the recorded delay timeline and keeps no
// memos at all). Small windows and frequent restarts make this fail
// deterministically on the stale-memo bug.
TEST(Sharding, DelayChangeInvalidatesHorizonMemos) {
  GpuConfig cfg;
  cfg.scheme.profile_window = 64;
  cfg.scheme.windows_per_restart = 2;
  cfg.scheme.delay_step = 256;
  cfg.scheme.max_delay = 2048;
  cfg.validate();
  const AddressMapper mapper(cfg);
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kDynDms, cfg.scheme);

  MemoryController mc(cfg, 0, mapper, core::make_scheduler(cfg, spec),
                      RowPolicy::kOpenRow);
  check::ChannelRecorder recorder(0);
  recorder.set_spec(spec);
  mc.set_recorder(&recorder);

  // A steady precise row-miss stream (every request a fresh row) keeps banks
  // age-gated almost continuously, so delay edges land mid-gate. Arrivals
  // enqueue after the cycle's tick, as GpuTop::partition_tick does, so the
  // golden replay's "schedulable the cycle after enqueue" rule holds.
  RequestId next_id = 1;
  std::uint32_t row = 1;
  for (Cycle now = 0; now < 6000; ++now) {
    mc.tick(now);
    if (now % 37 == 0) {
      MemRequest r;
      r.id = next_id++;
      r.line_addr = mapper.compose(0, /*bank=*/row % 4, /*row=*/row, 0);
      r.kind = AccessKind::kRead;
      ++row;
      mc.enqueue(r, now);
    }
    while (mc.pop_reply(now)) {
    }
  }
  mc.finalize();

  const check::ChannelRecording& rec = recorder.recording();
  ASSERT_GT(rec.delay_changes.size(), 2u);  // The delay actually moved.
  ASSERT_GT(rec.serves.size(), 100u);
  const check::GoldenTimeline golden = check::golden_replay(rec, cfg);
  ASSERT_TRUE(golden.completed);
  for (const check::RecordedServe& s : rec.serves) {
    const auto it = golden.entries.find(s.id);
    ASSERT_NE(it, golden.entries.end()) << "request " << s.id;
    ASSERT_EQ(it->second.outcome, check::GoldenOutcome::kServed) << "request " << s.id;
    EXPECT_EQ(s.cas_cycle, it->second.cas_cycle) << "request " << s.id;
    EXPECT_EQ(s.done_cycle, it->second.done_cycle) << "request " << s.id;
  }
}

}  // namespace
}  // namespace lazydram
