// Request-lifecycle collector tests: span bookkeeping for served / merged /
// dropped requests, the exact phase-sum identity (per-phase attribution
// partitions the end-to-end latency with no gaps or overlaps), per-bank
// window columns, the two trace export formats, and the run-level guarantee
// that lifecycle collection never perturbs RunMetrics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "core/scheme.hpp"
#include "dram/address.hpp"
#include "mem/controller.hpp"
#include "sim/simulator.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/window_sampler.hpp"
#include "workloads/patterns.hpp"
#include "workloads/workload.hpp"

namespace lazydram {
namespace {

using telemetry::LifecycleCollector;
using telemetry::ReqPhase;
using telemetry::RequestLifecycle;

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

double json_number(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

// ---------------------------------------------------------------------------
// Collector unit tests (synthetic hook sequences, no simulator).
// ---------------------------------------------------------------------------

TEST(LifecycleCollector, ExternalModeRecordsFullSpanAndMerges) {
  LifecycleCollector lc(nullptr, 1);
  lc.set_retain(true);

  MemRequest req;
  req.id = 7;
  req.line_addr = 0x1000;
  req.loc.bank = 3;

  lc.on_request_created(7, 0x1000, /*inject=*/10, /*eject=*/25, /*now=*/30);
  lc.on_mshr_merge(0x1000);
  lc.on_mshr_merge(0x1000);
  lc.on_mshr_merge(0x9999);  // Unknown line: ignored.
  lc.on_enqueue(req, /*channel=*/2, /*now_mem=*/20);
  lc.on_gate_end(7, 22, 30);
  lc.on_cas(7, 40);
  lc.on_data_return(7, 44);  // Only the warp wakeup closes the record.
  EXPECT_EQ(lc.sampled(), 0u);
  lc.on_reply_pop(7, 70);
  lc.on_warp_wakeup(7, 76);
  lc.on_warp_wakeup(7, 99);  // Later reply packets must not move the stamp.

  ASSERT_EQ(lc.sampled(), 1u);
  EXPECT_EQ(lc.served(), 1u);
  EXPECT_EQ(lc.dropped(), 0u);
  EXPECT_EQ(lc.mshr_merges(), 2u);
  EXPECT_EQ(lc.live(), 0u);

  ASSERT_EQ(lc.completed().size(), 1u);
  const RequestLifecycle& r = lc.completed()[0];
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.channel, 2u);
  EXPECT_EQ(r.bank, 3);
  EXPECT_EQ(r.mshr_merges, 2u);
  EXPECT_FALSE(r.dropped);
  EXPECT_EQ(r.wakeup_core, 76u);
  ASSERT_EQ(r.gates.size(), 1u);
  EXPECT_EQ(r.gated_cycles, 8u);

  // Each phase histogram got exactly the synthetic durations.
  EXPECT_EQ(lc.phase_histogram(ReqPhase::kIcntRequest).mean(), 15.0);
  EXPECT_EQ(lc.phase_histogram(ReqPhase::kPartitionWait).mean(), 5.0);
  EXPECT_EQ(lc.phase_histogram(ReqPhase::kQueueWait).mean(), 40.0 - 20.0 - 8.0);
  EXPECT_EQ(lc.phase_histogram(ReqPhase::kDmsGated).mean(), 8.0);
  EXPECT_EQ(lc.phase_histogram(ReqPhase::kService).mean(), 4.0);
  EXPECT_EQ(lc.phase_histogram(ReqPhase::kReplyReturn).mean(), 6.0);
}

TEST(LifecycleCollector, StandaloneSamplingKeepsFirstOfEveryStride) {
  LifecycleCollector lc(nullptr, 4);
  for (RequestId id = 1; id <= 8; ++id) {
    MemRequest req;
    req.id = id;
    req.line_addr = id * kLineBytes;
    lc.on_request_created(id, req.line_addr, 0, 0, id * 10);
    lc.on_enqueue(req, 0, id * 10);
    lc.on_cas(id, id * 10 + 5);
    lc.on_data_return(id, id * 10 + 9);
    lc.on_reply_pop(id, id * 10 + 9);
    lc.on_warp_wakeup(id, id * 10 + 9);
  }
  // Requests 1 and 5 (the first of each stride of 4) were kept.
  EXPECT_EQ(lc.sampled(), 2u);
  EXPECT_EQ(lc.phase_histogram(ReqPhase::kService).total(), 2u);
  EXPECT_EQ(lc.live(), 0u);
}

// Only an L2 read miss opens a record, so a write that passes every hook a
// controller and the reply path fire leaves nothing behind.
TEST(LifecycleCollector, WritesAreNeverRecorded) {
  LifecycleCollector lc(nullptr, 1);
  MemRequest req;
  req.id = 1;
  req.kind = AccessKind::kWrite;
  lc.on_enqueue(req, 0, 10);
  lc.on_cas(1, 15);
  lc.on_data_return(1, 20);
  lc.on_reply_pop(1, 20);
  lc.on_warp_wakeup(1, 20);
  EXPECT_EQ(lc.sampled(), 0u);
  EXPECT_EQ(lc.live(), 0u);
}

// ---------------------------------------------------------------------------
// A controller driven directly: real command engine, Static-DMS+AMS so both
// gate intervals and drops occur deterministically. Each read's record opens
// before its enqueue and closes when its reply is popped, as GpuTop does.
// ---------------------------------------------------------------------------

TEST(LifecycleController, PhaseIdentitiesHoldForServedAndDroppedRecords) {
  GpuConfig cfg;
  AddressMapper mapper(cfg);
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kStaticCombo, cfg.scheme);
  std::unique_ptr<Scheduler> sched = core::make_scheduler(cfg, spec);
  auto* lazy = dynamic_cast<core::LazyScheduler*>(sched.get());
  ASSERT_NE(lazy, nullptr);
  lazy->set_ams_ready(true);  // No L2 warm-up in this harness.
  LifecycleCollector lc(nullptr, 1);
  lc.set_retain(true);
  lazy->set_lifecycle(&lc);
  MemoryController mc(cfg, 0, mapper, std::move(sched));
  mc.set_lifecycle(&lc);

  Rng rng(0xBEEF);
  RequestId id = 1;
  std::uint64_t reads_enqueued = 0;
  for (Cycle now = 0; now < 300'000; ++now) {
    const bool busy = now % 4500 < 3000;
    if (busy && mc.can_accept() && rng.next_bool(0.35)) {
      MemRequest r;
      r.id = id++;
      r.line_addr = mapper.compose(
          0, static_cast<BankId>(rng.next_below(cfg.banks_per_channel)),
          rng.next_below(256),
          static_cast<std::uint32_t>(rng.next_below(16) * kLineBytes));
      r.kind = rng.next_bool(0.15) ? AccessKind::kWrite : AccessKind::kRead;
      r.approximable = r.kind == AccessKind::kRead && rng.next_bool(0.7);
      if (r.is_read()) {
        ++reads_enqueued;
        lc.on_request_created(r.id, r.line_addr, 0, 0, now);
      }
      mc.enqueue(r, now);
    }
    mc.tick(now);
    while (const std::optional<MemReply> reply = mc.pop_reply(now)) {
      lc.on_reply_pop(reply->id, now);
      lc.on_warp_wakeup(reply->id, now);
    }
  }

  // Every terminal read outcome the controller counted shows up as exactly
  // one finalized record (sampling is 1/1); in-flight tails stay live.
  EXPECT_EQ(lc.served() + lc.dropped() + lc.live(), reads_enqueued);
  EXPECT_EQ(lc.dropped(), mc.reads_dropped());
  EXPECT_EQ(lc.served(), mc.reads_served());
  EXPECT_GT(lc.served(), 0u);
  EXPECT_GT(lc.dropped(), 0u);  // Static-AMS with 70% approximable load drops.

  std::uint64_t served_e2e_sum = 0, gated_records = 0;
  for (const RequestLifecycle& r : lc.completed()) {
    const Cycle terminal = r.dropped ? r.drop_mem : r.done_mem;
    ASSERT_LE(r.enqueue_mem, terminal);
    if (!r.dropped) {
      ASSERT_LE(r.enqueue_mem, r.cas_mem);
      ASSERT_LE(r.cas_mem, r.done_mem);
      served_e2e_sum += r.done_mem - r.enqueue_mem;
    }
    // Gate intervals lie inside [enqueue, cas/drop], are well-formed, and
    // sum exactly to gated_cycles — the phase partition has no overlap.
    std::uint64_t gate_sum = 0;
    const Cycle gate_bound = r.dropped ? r.drop_mem : r.cas_mem;
    for (const telemetry::GateInterval& g : r.gates) {
      ASSERT_LT(g.begin, g.end);
      ASSERT_GE(g.begin, r.enqueue_mem);
      ASSERT_LE(g.end, gate_bound);
      gate_sum += g.end - g.begin;
    }
    ASSERT_EQ(gate_sum, r.gated_cycles);
    ASSERT_LE(r.gated_cycles, gate_bound - r.enqueue_mem);
    gated_records += r.gates.empty() ? 0 : 1;
  }
  EXPECT_GT(gated_records, 0u);  // DMS(128) gates row misses under load.

  // The three served-phase histograms partition the end-to-end latency
  // exactly: their weighted sums add up to sum(done - enqueue).
  const double phase_sum =
      lc.phase_histogram(ReqPhase::kQueueWait).mean() *
          static_cast<double>(lc.phase_histogram(ReqPhase::kQueueWait).total()) +
      lc.phase_histogram(ReqPhase::kDmsGated).mean() *
          static_cast<double>(lc.phase_histogram(ReqPhase::kDmsGated).total()) +
      lc.phase_histogram(ReqPhase::kService).mean() *
          static_cast<double>(lc.phase_histogram(ReqPhase::kService).total());
  EXPECT_DOUBLE_EQ(phase_sum, static_cast<double>(served_e2e_sum));
}

// ---------------------------------------------------------------------------
// WindowSampler bank columns.
// ---------------------------------------------------------------------------

TEST(WindowSamplerBankProbe, DifferencesPerWindowAndTelescopes) {
  telemetry::WindowSampler sampler(0, 4096, nullptr);
  // Synthetic cumulative counters: bank b accumulates b+1 units per cycle.
  sampler.set_bank_probe(2, [](Cycle end, std::vector<telemetry::BankProbe>& out) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b].activations = end * (b + 1);
      out[b].column_accesses = 3 * end * (b + 1);
      out[b].drops = end / 7;
      out[b].stall_cycles = end / 2;
    }
  });
  telemetry::WindowProbe probe;
  const Cycle total = 3 * 4096 + 123;
  for (Cycle now = 0; now < total; ++now) sampler.tick(now, probe);
  sampler.flush(probe);

  const auto& ws = sampler.samples();
  ASSERT_EQ(ws.size(), 4u);
  std::uint64_t acts[2] = {0, 0}, cols[2] = {0, 0}, drops = 0, stalls = 0;
  for (const telemetry::WindowSample& w : ws) {
    ASSERT_EQ(w.banks.size(), 2u);
    for (std::size_t b = 0; b < 2; ++b) {
      // Full windows carry exactly one window's worth of growth.
      if (w.ticks == 4096) {
        EXPECT_EQ(w.banks[b].activations, 4096u * (b + 1));
      }
      // cols > acts, so the row-hit column is their difference.
      EXPECT_EQ(w.banks[b].row_hits,
                w.banks[b].column_accesses - w.banks[b].activations);
      acts[b] += w.banks[b].activations;
      cols[b] += w.banks[b].column_accesses;
    }
    drops += w.banks[0].drops;
    stalls += w.banks[1].dms_stall_cycles;
  }
  // Windowed deltas telescope back to the final cumulative counters.
  for (std::size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(acts[b], total * (b + 1));
    EXPECT_EQ(cols[b], 3 * total * (b + 1));
  }
  EXPECT_EQ(drops, total / 7);
  EXPECT_EQ(stalls, total / 2);
}

// ---------------------------------------------------------------------------
// End-to-end: full GPU, TinyWorkload-sized run.
// ---------------------------------------------------------------------------

/// Small deterministic workload sized to finish in tens of thousands of
/// cycles (mirrors the telemetry test workload).
class TinyWorkload final : public workloads::Workload {
 public:
  std::string name() const override { return "tiny"; }
  std::string description() const override { return "lifecycle test workload"; }
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
  std::vector<workloads::AddrRange> output_ranges() const override {
    return {{workloads::MiB(896), 4}};
  }
  std::vector<workloads::AddrRange> approximable_ranges() const override {
    return {{workloads::MiB(16), workloads::MiB(256)},
            {workloads::MiB(512), workloads::MiB(4)}};
  }
};

/// The tentpole acceptance identity: at sampling 1/1 the three served-read
/// phase means sum to the independently collected avg_read_latency to 1e-9
/// (the attribution partitions the latency exactly; nothing is double
/// counted or missed).
TEST(LifecycleE2E, PhaseSumsReconcileWithAvgReadLatency) {
  TinyWorkload wl;
  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
  config.compute_error = false;
  config.lifecycle = true;
  config.trace_sample = 1;

  const sim::RunOutput out = sim::simulate_full(wl, config);
  ASSERT_TRUE(out.metrics.finished);
  ASSERT_TRUE(out.telemetry.lifecycle_enabled);
  const telemetry::LifecycleSummary& s = out.telemetry.lifecycle;
  EXPECT_EQ(s.sample_every, 1u);
  EXPECT_GT(s.served, 0u);
  EXPECT_EQ(s.sampled, s.served + s.dropped);

  const auto& qw = s.phases[static_cast<unsigned>(ReqPhase::kQueueWait)];
  const auto& gated = s.phases[static_cast<unsigned>(ReqPhase::kDmsGated)];
  const auto& service = s.phases[static_cast<unsigned>(ReqPhase::kService)];
  EXPECT_EQ(qw.count, s.served);
  EXPECT_EQ(gated.count, s.served);
  EXPECT_EQ(service.count, s.served);
  EXPECT_NEAR(qw.mean + gated.mean + service.mean,
              out.metrics.avg_read_latency_mem_cycles, 1e-9);

  // The dropped-path partition is complete too.
  const auto& dw = s.phases[static_cast<unsigned>(ReqPhase::kDropWait)];
  EXPECT_EQ(dw.count, s.dropped);
  EXPECT_EQ(s.dropped, out.metrics.drops);

  // Read-latency percentiles surfaced in RunMetrics are ordered and real.
  EXPECT_GT(out.metrics.read_latency_p50, 0u);
  EXPECT_LE(out.metrics.read_latency_p50, out.metrics.read_latency_p95);
  EXPECT_LE(out.metrics.read_latency_p95, out.metrics.read_latency_p99);
}

TEST(LifecycleE2E, JsonlReqLinesAuditPhaseBounds) {
  TinyWorkload wl;
  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
  config.compute_error = false;
  config.trace_path = temp_path("lifecycle_req.jsonl");
  config.trace_sample = 1;

  const sim::RunOutput out = sim::simulate_full(wl, config);
  ASSERT_TRUE(out.telemetry.lifecycle_enabled);

  std::uint64_t req_lines = 0;
  for (const std::string& line : read_lines(config.trace_path)) {
    if (line.find("\"type\":\"req\"") == std::string::npos) continue;
    ++req_lines;
    const double enq = json_number(line, "enq");
    const double gated = json_number(line, "gated");
    const bool dropped = line.find("\"dropped\":true") != std::string::npos;
    const double terminal =
        dropped ? json_number(line, "drop") : json_number(line, "done");
    EXPECT_LE(enq, terminal);
    if (!dropped) {
      const double cas = json_number(line, "cas");
      EXPECT_LE(enq, cas);
      EXPECT_LE(cas, terminal);
      EXPECT_LE(gated, cas - enq);
    } else {
      EXPECT_LE(gated, terminal - enq);
    }
    // Full GPU wiring: every core-domain stamp is present and ordered.
    const double inject = json_number(line, "inject");
    const double eject = json_number(line, "eject");
    const double wakeup = json_number(line, "wakeup");
    EXPECT_GT(inject, 0.0);
    EXPECT_LE(inject, eject);
    EXPECT_GT(wakeup, 0.0);
  }
  EXPECT_EQ(req_lines, out.telemetry.lifecycle.sampled);
  EXPECT_GT(req_lines, 0u);
  std::remove(config.trace_path.c_str());
}

TEST(LifecycleE2E, ChromeTraceIsWellFormedAndSpansPair) {
  TinyWorkload wl;
  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
  config.compute_error = false;
  config.trace_path = temp_path("lifecycle_chrome.json");
  config.trace_format = "chrome";
  config.trace_sample = 4;

  const sim::RunOutput out = sim::simulate_full(wl, config);
  ASSERT_TRUE(out.telemetry.lifecycle_enabled);

  std::string all;
  for (const std::string& line : read_lines(config.trace_path)) all += line;
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), '[');
  EXPECT_EQ(all.back(), ']');

  // Every async begin has a matching end, and the trace carries the span
  // taxonomy, the per-channel process metadata and the per-bank counters.
  EXPECT_EQ(count_occurrences(all, "\"ph\":\"b\""), count_occurrences(all, "\"ph\":\"e\""));
  EXPECT_GT(count_occurrences(all, "\"ph\":\"b\""), 0u);
  EXPECT_NE(all.find("process_name"), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"req\""), std::string::npos);
  EXPECT_NE(all.find("icnt_request"), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"service\""), std::string::npos);
  EXPECT_NE(all.find("bank.act"), std::string::npos);
  std::remove(config.trace_path.c_str());
}

TEST(LifecycleE2E, PerBankWindowColumnsSumToChannelTotals) {
  TinyWorkload wl;
  sim::RunConfig config;
  config.spec =
      core::make_scheme_spec(core::SchemeKind::kStaticCombo, config.gpu.scheme);
  config.compute_error = false;
  config.window_sampling = true;

  const sim::RunOutput out = sim::simulate_full(wl, config);
  ASSERT_TRUE(out.metrics.finished);
  ASSERT_EQ(out.telemetry.windows.size(), config.gpu.num_channels);

  std::uint64_t total_stall = 0, total_drops = 0;
  for (const auto& ws : out.telemetry.windows) {
    ASSERT_FALSE(ws.empty());
    for (const telemetry::WindowSample& w : ws) {
      ASSERT_EQ(w.banks.size(), config.gpu.banks_per_channel);
      std::uint64_t acts = 0, cols = 0, drops = 0;
      for (const telemetry::BankWindowSample& b : w.banks) {
        acts += b.activations;
        cols += b.column_accesses;
        drops += b.drops;
        total_stall += b.dms_stall_cycles;
      }
      // The per-bank columns decompose the window's channel totals exactly.
      EXPECT_EQ(acts, w.activations) << "window " << w.index;
      EXPECT_EQ(cols, w.column_reads + w.column_writes) << "window " << w.index;
      EXPECT_EQ(drops, w.drops) << "window " << w.index;
      total_drops += drops;
    }
  }
  // Static-DMS(128) age-gates row misses, so stall cycles were attributed.
  EXPECT_GT(total_stall, 0u);
  EXPECT_EQ(total_drops, out.metrics.drops);
}

/// Lifecycle collection must never perturb the simulation.
TEST(LifecycleE2E, MetricsIdenticalWithLifecycleOnAndOff) {
  TinyWorkload wl;
  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, config.gpu.scheme);
  config.compute_error = false;

  const sim::RunMetrics bare = sim::simulate(wl, config);
  config.lifecycle = true;
  config.trace_sample = 1;
  const sim::RunMetrics traced = sim::simulate(wl, config);

  EXPECT_EQ(bare.core_cycles, traced.core_cycles);
  EXPECT_EQ(bare.mem_cycles, traced.mem_cycles);
  EXPECT_EQ(bare.instructions, traced.instructions);
  EXPECT_EQ(bare.ipc, traced.ipc);
  EXPECT_EQ(bare.activations, traced.activations);
  EXPECT_EQ(bare.drops, traced.drops);
  EXPECT_EQ(bare.avg_read_latency_mem_cycles, traced.avg_read_latency_mem_cycles);
  EXPECT_EQ(bare.read_latency_p50, traced.read_latency_p50);
  EXPECT_EQ(bare.read_latency_p95, traced.read_latency_p95);
  EXPECT_EQ(bare.read_latency_p99, traced.read_latency_p99);
}

}  // namespace
}  // namespace lazydram
