// Google-benchmark microbenchmarks of the performance-critical simulator
// components: the DRAM command engine, FR-FCFS/lazy scheduling decisions,
// the VP unit's nearest-line search, the L1 MSHR table, and the functional
// layer's two per-run costs: one approximate SCP error pass and a
// `fill_smooth` input initialization.
//
// `bench_micro --perf` instead runs the overhead A/B: one end-to-end SCP run
// with self-observability off, on, and with lifecycle tracing, and exits
// non-zero when either observed arm costs more than its bound.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/assert.hpp"
#include "common/config.hpp"
#include "common/knobs.hpp"
#include "common/rng.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "core/scheme.hpp"
#include "core/value_predictor.hpp"
#include "dram/address.hpp"
#include "gpu/functional_memory.hpp"
#include "mem/controller.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/apps.hpp"
#include "workloads/patterns.hpp"

namespace {

using namespace lazydram;

void BM_DramCommandEngine(benchmark::State& state) {
  GpuConfig cfg;
  AddressMapper mapper(cfg);
  Rng rng(42);
  core::SchemeSpec spec;
  MemoryController mc(cfg, 0, mapper, core::make_scheduler(cfg, spec));
  RequestId id = 1;
  Cycle now = 0;
  for (auto _ : state) {
    if (mc.can_accept()) {
      MemRequest r;
      r.id = id++;
      r.line_addr =
          mapper.compose(0, static_cast<BankId>(rng.next_below(16)),
                         rng.next_below(256), static_cast<std::uint32_t>(
                                                  rng.next_below(16) * kLineBytes));
      r.kind = rng.next_bool(0.1) ? AccessKind::kWrite : AccessKind::kRead;
      mc.enqueue(r, now);
    }
    mc.tick(now);
    while (mc.pop_reply(now)) {
    }
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_DramCommandEngine);

void BM_LazySchedulerDecide(benchmark::State& state) {
  GpuConfig cfg;
  AddressMapper mapper(cfg);
  Rng rng(7);
  core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, cfg.scheme);
  core::LazyScheduler sched(cfg.scheme, spec, cfg.banks_per_channel);
  PendingQueue queue(cfg.pending_queue_size, cfg.banks_per_channel);
  for (RequestId i = 1; i <= 96; ++i) {
    MemRequest r;
    r.id = i;
    r.line_addr = mapper.compose(0, static_cast<BankId>(rng.next_below(16)),
                                 rng.next_below(64), 0);
    r.loc = mapper.map(r.line_addr);
    r.approximable = true;
    queue.push(r);
  }
  Cycle now = 10000;
  BankView bank{3, true, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.decide(queue, bank, now));
    ++now;
  }
}
BENCHMARK(BM_LazySchedulerDecide);

void BM_ValuePredictorSearch(benchmark::State& state) {
  GpuConfig cfg;
  cache::Cache l2(cfg.l2);
  gpu::FunctionalMemory fmem;
  Rng rng(3);
  for (int i = 0; i < 1024; ++i)
    l2.fill(rng.next_below(1u << 20) * kLineBytes, false, false);
  core::ValuePredictor vp(l2, fmem, cfg.scheme.vp_set_radius);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vp.predict(rng.next_below(1u << 20) * kLineBytes));
  }
}
BENCHMARK(BM_ValuePredictorSearch);

// An L1 MSHR table held at 32 live entries: each iteration retires the
// oldest entry (fills return roughly in order), allocates a fresh line and
// merges three more misses into random live lines, checking capacity first
// as the SM does.
void BM_MshrAllocateMergeRelease(benchmark::State& state) {
  constexpr unsigned kLive = 32;
  cache::MshrTable<cache::MshrToken> mshr(kLive);
  Rng rng(11);
  std::array<Addr, kLive> live{};
  Addr next = 0;
  cache::MshrToken token = 0;
  for (Addr& line : live) {
    next += kLineBytes * (1 + rng.next_below(64));
    line = next;
    mshr.allocate(line, token++);
  }
  unsigned head = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mshr.release(live[head]).size());
    next += kLineBytes * (1 + rng.next_below(64));
    live[head] = next;
    head = (head + 1) % kLive;
    mshr.allocate(next, token++);
    for (int m = 0; m < 3; ++m) {
      const Addr line = live[rng.next_below(kLive)];
      if (mshr.can_allocate(line)) mshr.allocate(line, token++);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 5);
}
BENCHMARK(BM_MshrAllocateMergeRelease);

// One SCP compute_output through an approximate view, as collect_metrics
// runs it: on a fresh copy-on-write child of SCP's initialized image, over
// an overlay holding about 10% of the lines SCP may approximate (each line
// predicted as the line after it, a seeded draw).
void BM_ScpFunctionalPass(benchmark::State& state) {
  const auto scp = workloads::make_scp();
  gpu::MemoryImage image;
  scp->init_memory(image);
  gpu::ApproxOverlay overlay;
  Rng rng(5);
  std::array<std::uint8_t, kLineBytes> next{};
  for (const workloads::AddrRange& range : scp->approximable_ranges())
    for (Addr line = range.base; line < range.base + range.bytes; line += kLineBytes)
      if (rng.next_bool(0.1)) {
        image.read(line + kLineBytes, next.data(), kLineBytes);
        overlay.record(line, next.data());
      }
  for (auto _ : state) {
    gpu::MemoryImage child = gpu::MemoryImage::copy_on_write(image);
    gpu::MemView view(child, &overlay);
    scp->compute_output(view);
    benchmark::DoNotOptimize(child.pages());
  }
}
BENCHMARK(BM_ScpFunctionalPass)->Unit(benchmark::kMillisecond);

// fill_smooth of 256K f32s (1 MiB) into a fresh image.
void BM_FillSmooth(benchmark::State& state) {
  constexpr std::uint64_t kElems = 1u << 18;
  for (auto _ : state) {
    gpu::MemoryImage image;
    workloads::fill_smooth(image, workloads::MiB(16), kElems, 0.5, 5.0, 2.0);
    benchmark::DoNotOptimize(image.pages());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kElems));
}
BENCHMARK(BM_FillSmooth)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Overhead A/B (--perf): the same end-to-end SCP Dyn-DMS+AMS run three ways,
// interleaved best-of-3 so host noise hits every arm alike (min-wall is the
// robust estimator for wall-clock microbenchmarks):
//   * off:     profiler disarmed, flight recorder depth 0, no trace;
//   * selfobs: profiler armed, heartbeat armed but silent, flight recorder at
//              its default depth;
//   * traced:  lifecycle sampled 1 in 64 and a chrome trace to a temp file.
// Each ratio comes from one process on one host, so it needs no baseline.
// LD_ASSERT enforces the bit-identity contract: every arm must retire the
// same core-cycle count.
// ---------------------------------------------------------------------------

/// Self-observability must stay cheap enough to leave on.
constexpr double kMaxSelfObsOverhead = 1.05;
/// Lifecycle tracing at 1/64 sampling plus the chrome export.
constexpr double kMaxTraceOverhead = 3.0;

int run_perf() {
  sim::RunConfig off_cfg;
  off_cfg.spec =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, off_cfg.gpu.scheme);
  off_cfg.ignore_env_outputs = true;
  off_cfg.flight_depth = 0;

  sim::RunConfig selfobs_cfg = off_cfg;
  selfobs_cfg.flight_depth =
      static_cast<std::int64_t>(telemetry::FlightRecorder::kDefaultDepth);
  selfobs_cfg.gpu.self_profile = true;
  // Armed but silent: the heartbeat deadline checks are on the measured path,
  // the period just never elapses within the run.
  selfobs_cfg.gpu.heartbeat_seconds = 3600.0;

  std::string trace_path =
      (std::filesystem::temp_directory_path() / "bench_micro_trace.XXXXXX").string();
  const int fd = ::mkstemp(trace_path.data());
  if (fd < 0) {
    std::fprintf(stderr, "bench_micro: cannot create a temporary trace file\n");
    return 1;
  }
  ::close(fd);
  sim::RunConfig traced_cfg = off_cfg;
  traced_cfg.trace_path = trace_path;
  traced_cfg.trace_format = "chrome";
  traced_cfg.trace_sample = 64;

  const auto wl = workloads::make_scp();
  struct Arm {
    const char* name;
    const sim::RunConfig* config;
    double bound;  ///< Largest wall ratio to the off arm.
    double wall = 0.0;
    Cycle core_cycles = 0;
  };
  Arm arms[] = {{"off", &off_cfg, 1.0},
                {"selfobs", &selfobs_cfg, kMaxSelfObsOverhead},
                {"traced", &traced_cfg, kMaxTraceOverhead}};
  // The arm switch is process-global, so each run disarms first and lets
  // selfobs_cfg re-arm; reset() drops the zone data a run accumulated.
  // ($LAZYDRAM_SELFPROF=1 would arm every arm and void the measurement.)
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    for (Arm& arm : arms) {
      telemetry::SelfProfiler::set_enabled(false);
      telemetry::SelfProfiler::instance().reset();
      const auto out = sim::simulate_full(*wl, *arm.config);
      if (rep == 0 || out.telemetry.profile.run_seconds < arm.wall)
        arm.wall = out.telemetry.profile.run_seconds;
      arm.core_cycles = out.metrics.core_cycles;
    }
  }
  telemetry::SelfProfiler::set_enabled(false);
  telemetry::SelfProfiler::instance().reset();
  std::filesystem::remove(trace_path);

  const Arm& off = arms[0];
  std::printf("perf  %-8s %8.3f s  (SCP, Dyn-DMS+AMS, best of %d)\n", off.name, off.wall,
              kReps);
  bool ok = true;
  for (const Arm& arm : arms) {
    LD_ASSERT_MSG(arm.core_cycles == off.core_cycles,
                  "an observed run diverged from the unobserved run");
    if (&arm == &off) continue;
    const double ratio = arm.wall / off.wall;
    std::printf("perf  %-8s %8.3f s  %.3fx off (bound %.2fx)%s\n", arm.name, arm.wall,
                ratio, arm.bound, ratio <= arm.bound ? "" : "  FAILED");
    ok = ok && ratio <= arm.bound;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Without --perf every argument belongs to Google Benchmark.
  if (std::find(argv + 1, argv + argc, std::string_view("--perf")) != argv + argc) {
    knobs::parse_or_exit(argc, argv, {&knobs::kPerf});
    return run_perf();
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
