// Fig. 8: how DMS helps AMS — the illustrative mis-drop example. Nine
// requests spread over five rows (R1..R5) of one bank; R1..R4 will receive a
// second request later, R5 will not. AMS alone observes five RBL(1) groups
// and drops the oldest (an R1 request) — Avg-RBL *falls* from 1.8 to 1.6.
// With DMS aging the queue first, AMS correctly identifies R5 as the only
// true RBL(1) group: Avg-RBL rises from 1.8 to 2.0.
//
// The per-window columns (activations, drops, coverage, Th_RBL) come from
// the telemetry WindowSampler attached to the controller; pass
// `--json <path>` (or set LAZYDRAM_JSON) to also dump them machine-readably.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/knobs.hpp"
#include "common/log.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "dram/address.hpp"
#include "mem/controller.hpp"
#include "sim/report.hpp"
#include "telemetry/json.hpp"
#include "telemetry/window_sampler.hpp"

using namespace lazydram;

namespace {

// Runs are ~6000 cycles, so sample far below the production 4096-cycle
// profile window to get a readable series.
constexpr Cycle kBenchWindow = 512;

struct Result {
  std::uint64_t activations = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  double avg_rbl = 0.0;
  std::vector<telemetry::WindowSample> windows;
};

/// Runs the Fig. 8 scenario. `delay` > 0 adds DMS; AMS(1) hunts RBL(1) rows
/// with a one-drop budget (coverage cap sized to one request).
Result run_example(Cycle delay) {
  GpuConfig cfg;
  cfg.scheme.coverage_cap = 0.12;  // 1 of 9 requests ~ 11%.
  cfg.scheme.l2_warmup_fills = 0;
  AddressMapper mapper(cfg);

  core::SchemeSpec spec;
  spec.kind = core::SchemeKind::kStaticAms;
  spec.ams_enabled = true;
  spec.static_th_rbl = 1;
  spec.dms_enabled = delay > 0;
  spec.static_delay = delay;

  std::unique_ptr<Scheduler> sched = core::make_scheduler(cfg, spec);
  auto* lazy = dynamic_cast<core::LazyScheduler*>(sched.get());
  MemoryController mc(cfg, 0, mapper, std::move(sched));
  lazy->set_ams_ready(true);
  mc.enable_window_sampling(kBenchWindow, nullptr);

  RequestId id = 1;
  const auto read_at = [&](RowId row, std::uint32_t col, Cycle now) {
    MemRequest r;
    r.id = id++;
    r.line_addr = mapper.compose(0, /*bank=*/0, row, col * kLineBytes);
    r.kind = AccessKind::kRead;
    r.approximable = true;
    mc.enqueue(r, now);
  };

  Cycle now = 0;
  // First wave: one request each to R1..R5.
  for (RowId row = 1; row <= 5; ++row) read_at(row, 0, now);
  // Second wave arrives 400 cycles later: R1..R4 again (R5 never repeats).
  for (; now < 400; ++now) {
    mc.tick(now);
    while (mc.pop_reply(now)) {
    }
  }
  for (RowId row = 1; row <= 4; ++row) read_at(row, 1, now);
  for (; now < 6000; ++now) {
    mc.tick(now);
    while (mc.pop_reply(now)) {
    }
  }
  mc.finalize();

  Result res;
  res.activations = mc.channel().activations();
  res.served = mc.channel().column_accesses();
  res.dropped = mc.reads_dropped();
  res.avg_rbl =
      static_cast<double>(res.served) / static_cast<double>(res.activations);
  res.windows = mc.sampler()->samples();
  return res;
}

void print_windows(const char* label, const std::vector<telemetry::WindowSample>& ws) {
  std::printf("  per-window trace (%s, window=%llu cycles):\n", label,
              static_cast<unsigned long long>(kBenchWindow));
  std::printf("    %-3s %-12s %6s %6s %9s %7s %6s\n", "w", "cycles", "acts",
              "drops", "coverage", "th_rbl", "delay");
  for (const auto& w : ws) {
    std::printf("    %-3llu [%4llu,%4llu) %6llu %6llu %8.1f%% %7.1f %6.0f\n",
                static_cast<unsigned long long>(w.index),
                static_cast<unsigned long long>(w.start_cycle),
                static_cast<unsigned long long>(w.end_cycle),
                static_cast<unsigned long long>(w.activations),
                static_cast<unsigned long long>(w.drops), w.coverage * 100.0,
                w.avg_th_rbl, w.avg_delay);
  }
}

void write_windows(telemetry::JsonWriter& jw,
                   const std::vector<telemetry::WindowSample>& ws) {
  jw.begin_array();
  for (const auto& w : ws) {
    jw.begin_object();
    jw.field("index", w.index);
    jw.field("start", w.start_cycle);
    jw.field("end", w.end_cycle);
    jw.field("activations", w.activations);
    jw.field("drops", w.drops);
    jw.field("coverage", w.coverage);
    jw.field("th_rbl", w.avg_th_rbl);
    jw.field("delay", w.avg_delay);
    jw.end_object();
  }
  jw.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 8 — DMS helps AMS pick the right victim (9 requests, 5 rows)",
      "AMS alone mis-drops an R1 request: Avg-RBL 1.8 -> 1.6; with DMS the "
      "true RBL(1) row R5 is dropped: Avg-RBL 1.8 -> 2.0");

  const Result alone = run_example(0);
  const Result with_dms = run_example(600);
  std::printf("%-18s acts=%llu served=%llu dropped=%llu Avg-RBL=%.2f\n",
              "AMS(1) alone:", static_cast<unsigned long long>(alone.activations),
              static_cast<unsigned long long>(alone.served),
              static_cast<unsigned long long>(alone.dropped), alone.avg_rbl);
  print_windows("AMS(1) alone", alone.windows);
  std::printf("%-18s acts=%llu served=%llu dropped=%llu Avg-RBL=%.2f\n",
              "DMS + AMS(1):", static_cast<unsigned long long>(with_dms.activations),
              static_cast<unsigned long long>(with_dms.served),
              static_cast<unsigned long long>(with_dms.dropped), with_dms.avg_rbl);
  print_windows("DMS + AMS(1)", with_dms.windows);

  const std::string json_path = cli.get(knobs::kJson).text;
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      log_warn("cannot open '%s' for the JSON report", json_path.c_str());
      return 1;
    }
    telemetry::JsonWriter jw(f);
    jw.begin_object();
    jw.field("bench", "fig08_ams_example");
    jw.key("ams_alone");
    jw.begin_object();
    jw.field("activations", alone.activations);
    jw.field("served", alone.served);
    jw.field("dropped", alone.dropped);
    jw.field("avg_rbl", alone.avg_rbl);
    jw.key("windows");
    write_windows(jw, alone.windows);
    jw.end_object();
    jw.key("dms_ams");
    jw.begin_object();
    jw.field("activations", with_dms.activations);
    jw.field("served", with_dms.served);
    jw.field("dropped", with_dms.dropped);
    jw.field("avg_rbl", with_dms.avg_rbl);
    jw.key("windows");
    write_windows(jw, with_dms.windows);
    jw.end_object();
    jw.end_object();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("JSON report written to %s\n", json_path.c_str());
  }
  return 0;
}
