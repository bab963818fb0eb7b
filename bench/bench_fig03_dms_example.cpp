// Fig. 3: the illustrative DMS example. Eight requests to four rows (R1-R4)
// of one bank arrive in two waves four-hundred-odd cycles apart. Timely
// FR-FCFS scheduling serves the first wave immediately (4 activations) and
// the second wave re-opens every row (4 more). Delaying the first wave keeps
// it pending until the second arrives: 4 activations serve all 8 requests,
// doubling Avg-RBL.
//
// The per-window columns (activations, row hits, BWUTIL, active DMS delay)
// come from the telemetry WindowSampler attached to the controller; pass
// `--json <path>` (or set LAZYDRAM_JSON) to also dump them machine-readably.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/knobs.hpp"
#include "common/log.hpp"
#include "core/scheduler_registry.hpp"
#include "dram/address.hpp"
#include "mem/controller.hpp"
#include "sim/report.hpp"
#include "telemetry/json.hpp"
#include "telemetry/window_sampler.hpp"

using namespace lazydram;

namespace {

// Runs are ~4000 cycles, so sample far below the production 4096-cycle
// profile window to get a readable series.
constexpr Cycle kBenchWindow = 512;

struct Result {
  std::uint64_t activations = 0;
  double avg_rbl = 0.0;
  std::vector<telemetry::WindowSample> windows;
};

Result run_example(Cycle delay) {
  GpuConfig cfg;
  AddressMapper mapper(cfg);
  core::SchemeSpec spec;
  spec.kind = delay > 0 ? core::SchemeKind::kStaticDms : core::SchemeKind::kBaseline;
  spec.dms_enabled = delay > 0;
  spec.static_delay = delay;
  MemoryController mc(cfg, 0, mapper, core::make_scheduler(cfg, spec));
  mc.enable_window_sampling(kBenchWindow, nullptr);

  RequestId id = 1;
  const auto read_at = [&](RowId row, std::uint32_t col, Cycle now) {
    MemRequest r;
    r.id = id++;
    r.line_addr = mapper.compose(0, /*bank=*/0, row, col * kLineBytes);
    r.kind = AccessKind::kRead;
    mc.enqueue(r, now);
  };

  Cycle now = 0;
  // First wave: one request to each of R1..R4.
  for (RowId row = 1; row <= 4; ++row) read_at(row, 0, now);
  // Tick 400 cycles, then the second wave arrives (same four rows).
  for (; now < 400; ++now) mc.tick(now);
  for (RowId row = 1; row <= 4; ++row) read_at(row, 1, now);
  for (; now < 4000; ++now) {
    mc.tick(now);
    while (mc.pop_reply(now)) {
    }
  }
  mc.finalize();

  Result res;
  res.activations = mc.channel().activations();
  res.avg_rbl = static_cast<double>(mc.channel().column_accesses()) /
                static_cast<double>(res.activations);
  res.windows = mc.sampler()->samples();
  return res;
}

void print_windows(const char* label, const std::vector<telemetry::WindowSample>& ws) {
  std::printf("  per-window trace (%s, window=%llu cycles):\n", label,
              static_cast<unsigned long long>(kBenchWindow));
  std::printf("    %-3s %-12s %6s %8s %8s %7s %6s\n", "w", "cycles", "acts",
              "row_hits", "bwutil", "delay", "queue");
  for (const auto& w : ws) {
    std::printf("    %-3llu [%4llu,%4llu) %6llu %8llu %7.1f%% %7.0f %6.1f\n",
                static_cast<unsigned long long>(w.index),
                static_cast<unsigned long long>(w.start_cycle),
                static_cast<unsigned long long>(w.end_cycle),
                static_cast<unsigned long long>(w.activations),
                static_cast<unsigned long long>(w.row_hits), w.bwutil * 100.0,
                w.avg_delay, w.queue_occupancy);
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
    jw.field("row_hits", w.row_hits);
    jw.field("bwutil", w.bwutil);
    jw.field("delay", w.avg_delay);
    jw.field("queue", w.queue_occupancy);
    jw.end_object();
  }
  jw.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 3 — illustrative DMS example (8 requests, 4 rows, 2 waves)",
      "baseline: 8 activations, Avg-RBL 1; DMS(X): 4 activations, Avg-RBL 2");

  const Result base = run_example(0);
  const Result dms = run_example(512);
  std::printf("%-22s activations=%llu  Avg-RBL=%.1f\n", "Timely (baseline):",
              static_cast<unsigned long long>(base.activations), base.avg_rbl);
  print_windows("baseline", base.windows);
  std::printf("%-22s activations=%llu  Avg-RBL=%.1f\n", "Delayed DMS(512):",
              static_cast<unsigned long long>(dms.activations), dms.avg_rbl);
  print_windows("DMS(512)", dms.windows);

  const std::string json_path = cli.get(knobs::kJson).text;
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      log_warn("cannot open '%s' for the JSON report", json_path.c_str());
      return 1;
    }
    telemetry::JsonWriter jw(f);
    jw.begin_object();
    jw.field("bench", "fig03_dms_example");
    jw.key("baseline");
    jw.begin_object();
    jw.field("activations", base.activations);
    jw.field("avg_rbl", base.avg_rbl);
    jw.key("windows");
    write_windows(jw, base.windows);
    jw.end_object();
    jw.key("dms");
    jw.begin_object();
    jw.field("activations", dms.activations);
    jw.field("avg_rbl", dms.avg_rbl);
    jw.key("windows");
    write_windows(jw, dms.windows);
    jw.end_object();
    jw.end_object();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("JSON report written to %s\n", json_path.c_str());
  }
  return 0;
}
