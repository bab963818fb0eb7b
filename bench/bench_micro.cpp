// Google-benchmark microbenchmarks of the performance-critical simulator
// components: the DRAM command engine, FR-FCFS/lazy scheduling decisions,
// and the VP unit's nearest-line search.
//
// `bench_micro --perf` instead runs the perf-regression harness: it drives
// one fig12-configuration (Table I defaults) memory controller per scheme
// with a deterministic bursty-plus-idle request stream, plus one end-to-end
// workload run, and writes wall time, simulated cycles/sec and requests/sec
// per scheme to BENCH_perf.json. CI compares the report against the
// checked-in bench/BENCH_perf.json baseline (tools/check_perf.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.hpp"
#include "common/assert.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "core/scheme.hpp"
#include "core/value_predictor.hpp"
#include "dram/address.hpp"
#include "gpu/functional_memory.hpp"
#include "mem/controller.hpp"
#include "sim/simulator.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/apps.hpp"

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

// ---------------------------------------------------------------------------
// Perf-regression harness (--perf).
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Bursty-plus-idle cadence of the perf streams: the saturated hot path
/// followed by the compute phases real workloads spend most cycles in.
constexpr Cycle kBusyPhase = 3000;
constexpr Cycle kIdlePhase = 1500;

struct SchemePerf {
  std::string scheme;
  Cycle mem_cycles = 0;
  std::uint64_t requests_completed = 0;
  double wall_seconds = 0.0;

  double cycles_per_second() const {
    return wall_seconds == 0.0 ? 0.0 : static_cast<double>(mem_cycles) / wall_seconds;
  }
  double requests_per_second() const {
    return wall_seconds == 0.0 ? 0.0
                               : static_cast<double>(requests_completed) / wall_seconds;
  }
};

/// Drives one fig12-configuration controller for `total_cycles` memory
/// cycles with a deterministic request stream that alternates bursty load
/// (the saturated hot path) and idle gaps (the compute phases real workloads
/// spend most cycles in), so both the indexed-queue and the idle-skip layers
/// are exercised by the measurement.
///
/// `tele`, when non-null, attaches the full observability layer (event
/// tracer, lifecycle collector, window sampling with per-bank columns) so
/// --perf-trace measures the tracing-on overhead of the same stream.
SchemePerf drive_controller(core::SchemeKind kind, Cycle total_cycles,
                            telemetry::Telemetry* tele = nullptr) {
  GpuConfig cfg;  // fig12 configuration: Table I defaults.
  // Honor the same A/B knob as sim::simulate for the power accountant:
  // `LAZYDRAM_POWER=off bench_micro --perf` measures the accounting-free
  // hot path.
  if (const char* power = std::getenv("LAZYDRAM_POWER"); power != nullptr) {
    if (std::string_view(power) == "off" || std::string_view(power) == "0")
      cfg.power_accounting = false;
  }
  AddressMapper mapper(cfg);
  core::SchemeSpec spec = core::make_scheme_spec(kind, cfg.scheme);
  std::unique_ptr<Scheduler> sched = core::make_scheduler(cfg, spec);
  auto* lazy = dynamic_cast<core::LazyScheduler*>(sched.get());
  LD_ASSERT(lazy != nullptr);
  // The harness has no L2/VP warm-up; arm AMS directly so the drop pass runs.
  lazy->set_ams_ready(true);
  if (tele != nullptr) {
    lazy->set_telemetry(&tele->tracer(), 0);
    lazy->set_lifecycle(tele->lifecycle());
  }
  MemoryController mc(cfg, 0, mapper, std::move(sched));
  if (tele != nullptr) {
    mc.set_tracer(&tele->tracer());
    mc.set_lifecycle(tele->lifecycle());
    mc.enable_window_sampling(cfg.scheme.profile_window, &tele->tracer());
  }

  Rng rng(0xF161200ull + static_cast<std::uint64_t>(kind));
  RequestId id = 1;
  std::uint64_t completed = 0;

  const auto start = std::chrono::steady_clock::now();
  for (Cycle now = 0; now < total_cycles; ++now) {
    const bool busy = now % (kBusyPhase + kIdlePhase) < kBusyPhase;
    if (busy && mc.can_accept() && rng.next_bool(0.35)) {
      MemRequest r;
      r.id = id++;
      r.line_addr = mapper.compose(
          0, static_cast<BankId>(rng.next_below(cfg.banks_per_channel)),
          rng.next_below(256),
          static_cast<std::uint32_t>(rng.next_below(16) * kLineBytes));
      r.kind = rng.next_bool(0.15) ? AccessKind::kWrite : AccessKind::kRead;
      r.approximable = r.kind == AccessKind::kRead && rng.next_bool(0.7);
      mc.enqueue(r, now);
    }
    mc.tick(now);
    while (mc.pop_reply(now)) ++completed;
  }
  // Flushing the final partial window is part of the traced run's cost.
  if (tele != nullptr) mc.finalize();

  SchemePerf perf;
  perf.wall_seconds = seconds_since(start);
  perf.scheme = core::scheme_name(kind);
  perf.mem_cycles = total_cycles;
  perf.requests_completed = completed;
  return perf;
}

// ---------------------------------------------------------------------------
// Event-wheel lane: all channels of the fig12 configuration driven cycle by
// cycle and then through the event-wheel horizons (next_event /
// advance_idle), both on one thread. The request streams are precomputed so
// both modes consume the identical per-channel stream, and the aggregate
// served/completed counts are asserted equal across modes.
// ---------------------------------------------------------------------------

/// One precomputed enqueue: the stream is fixed up front so skipping cycles
/// can't perturb the RNG draw sequence between drive modes.
struct StreamEvent {
  Cycle cycle = 0;
  MemRequest req;
};

/// Cadence of the event-wheel streams: the compute-dominated shape the
/// paper's latency-tolerance argument rests on (Section II) — short memory
/// bursts separated by long compute phases in which the channel sits quiet.
/// This is the regime the event wheel exists for: the per-tick loop pays for
/// every quiet cycle, the wheel fast-forwards over them.
constexpr Cycle kWheelBusyPhase = 1500;
constexpr Cycle kWheelIdlePhase = 118500;

std::vector<StreamEvent> make_stream(const GpuConfig& cfg, const AddressMapper& mapper,
                                     ChannelId ch, Cycle total_cycles) {
  Rng rng(0x5AD0ull + ch);
  RequestId id = 1;
  std::vector<StreamEvent> out;
  for (Cycle now = 0; now < total_cycles; ++now) {
    const bool busy = now % (kWheelBusyPhase + kWheelIdlePhase) < kWheelBusyPhase;
    if (!busy || !rng.next_bool(0.35)) continue;
    StreamEvent e;
    e.cycle = now;
    e.req.id = id++;
    e.req.line_addr = mapper.compose(
        ch, static_cast<BankId>(rng.next_below(cfg.banks_per_channel)),
        rng.next_below(256),
        static_cast<std::uint32_t>(rng.next_below(16) * kLineBytes));
    e.req.kind = rng.next_bool(0.15) ? AccessKind::kWrite : AccessKind::kRead;
    e.req.approximable = e.req.kind == AccessKind::kRead && rng.next_bool(0.7);
    out.push_back(e);
  }
  return out;
}

std::vector<std::unique_ptr<MemoryController>> make_channels(
    const GpuConfig& cfg, const AddressMapper& mapper, const core::SchemeSpec& spec) {
  std::vector<std::unique_ptr<MemoryController>> mcs;
  for (ChannelId ch = 0; ch < cfg.num_channels; ++ch) {
    std::unique_ptr<Scheduler> sched = core::make_scheduler(cfg, spec);
    auto* lazy = dynamic_cast<core::LazyScheduler*>(sched.get());
    LD_ASSERT(lazy != nullptr);
    lazy->set_ams_ready(true);
    mcs.push_back(
        std::make_unique<MemoryController>(cfg, ch, mapper, std::move(sched)));
  }
  return mcs;
}

/// Drives one channel over its stream cycle by cycle (the per-tick reference
/// the wheel drives are timed and checked against).
std::uint64_t drive_one_legacy(MemoryController& mc,
                               const std::vector<StreamEvent>& stream,
                               Cycle total_cycles) {
  std::uint64_t completed = 0;
  std::size_t idx = 0;
  for (Cycle now = 0; now < total_cycles; ++now) {
    if (idx < stream.size() && stream[idx].cycle == now) {
      if (mc.can_accept()) mc.enqueue(stream[idx].req, now);
      ++idx;
    }
    mc.tick(now);
    while (mc.pop_reply(now)) ++completed;
  }
  while (mc.pop_reply(total_cycles - 1)) ++completed;
  return completed;
}

/// Drives one channel over its stream through the event-wheel horizons:
/// quiet spans are fast-forwarded via next_event()/advance_idle(), with the
/// skip additionally bounded by the next stream enqueue. Replies are popped
/// at real ticks only; the final drain makes the completed count identical
/// to the per-tick loop.
std::uint64_t drive_one_wheel(MemoryController& mc,
                              const std::vector<StreamEvent>& stream,
                              Cycle total_cycles) {
  std::uint64_t completed = 0;
  std::size_t idx = 0;
  const auto real_tick = [&](Cycle now) {
    if (idx < stream.size() && stream[idx].cycle == now) {
      if (mc.can_accept()) mc.enqueue(stream[idx].req, now);
      ++idx;
    }
    mc.tick(now);
    while (mc.pop_reply(now)) ++completed;
  };
  real_tick(0);
  Cycle m = 0;  // Last processed cycle.
  while (m + 1 < total_cycles) {
    const Cycle next_stream = idx < stream.size() ? stream[idx].cycle : kNeverCycle;
    const Cycle ev = std::min(mc.next_event(m), next_stream);
    if (ev > m + 1) {
      const Cycle to = std::min(ev - 1, total_cycles - 1);
      mc.advance_idle(m, to);
      m = to;
      continue;
    }
    ++m;
    real_tick(m);
  }
  while (mc.pop_reply(total_cycles - 1)) ++completed;
  return completed;
}

struct WheelPerf {
  Cycle mem_cycles = 0;  ///< Aggregate over channels.
  std::uint64_t requests_completed = 0;
  double legacy_wall = 0.0;
  double wheel_wall = 0.0;
  double speedup() const { return wheel_wall == 0.0 ? 0.0 : legacy_wall / wheel_wall; }
};

WheelPerf drive_wheel(Cycle cycles_per_channel) {
  GpuConfig cfg;  // fig12 configuration: Table I defaults.
  AddressMapper mapper(cfg);
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, cfg.scheme);
  const unsigned channels = cfg.num_channels;

  std::vector<std::vector<StreamEvent>> streams;
  for (ChannelId ch = 0; ch < channels; ++ch)
    streams.push_back(make_stream(cfg, mapper, ch, cycles_per_channel));

  WheelPerf perf;
  perf.mem_cycles = cycles_per_channel * channels;

  std::uint64_t legacy_completed = 0, legacy_served = 0;

  // Best-of-3 per mode, modes interleaved within each repetition so host
  // noise (a shared/throttled box) hits both alike; min-wall is the
  // standard robust estimator for wall-clock microbenchmarks.
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    // Legacy: every channel ticked every cycle, one thread.
    {
      auto mcs = make_channels(cfg, mapper, spec);
      std::uint64_t completed = 0, served = 0;
      const auto start = std::chrono::steady_clock::now();
      for (ChannelId ch = 0; ch < channels; ++ch)
        completed += drive_one_legacy(*mcs[ch], streams[ch], cycles_per_channel);
      const double wall = seconds_since(start);
      if (rep == 0 || wall < perf.legacy_wall) perf.legacy_wall = wall;
      for (const auto& mc : mcs) served += mc->reads_served();
      legacy_completed = completed;
      legacy_served = served;
    }

    // Event wheel, one thread.
    {
      auto mcs = make_channels(cfg, mapper, spec);
      std::uint64_t completed = 0, served = 0;
      const auto start = std::chrono::steady_clock::now();
      for (ChannelId ch = 0; ch < channels; ++ch)
        completed += drive_one_wheel(*mcs[ch], streams[ch], cycles_per_channel);
      const double wall = seconds_since(start);
      if (rep == 0 || wall < perf.wheel_wall) perf.wheel_wall = wall;
      for (const auto& mc : mcs) served += mc->reads_served();
      // The drives must agree exactly — the wheel is an execution
      // strategy, not a model.
      LD_ASSERT_MSG(completed == legacy_completed && served == legacy_served,
                    "event-wheel drive diverged from the per-tick drive");
    }
  }
  perf.requests_completed = legacy_completed;
  return perf;
}

// ---------------------------------------------------------------------------
// Self-profiler overhead lane: the same end-to-end SCP run with the whole
// self-observability layer off (profiler disarmed, flight recorder depth 0)
// vs on (profiler armed, heartbeat armed-but-silent, flight at its default
// depth). The on/off wall ratio is the overhead CI gates at 5%
// (check_perf.py --max-selfprof-overhead 1.05), and LD_ASSERT enforces the
// bit-identity contract: both runs must retire the same core-cycle count.
// ---------------------------------------------------------------------------

struct SelfProfPerf {
  double off_wall = 0.0;
  double on_wall = 0.0;
  double overhead() const { return off_wall == 0.0 ? 0.0 : on_wall / off_wall; }
};

SelfProfPerf measure_selfprof_overhead() {
  sim::RunConfig off_cfg;
  off_cfg.spec =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, off_cfg.gpu.scheme);
  off_cfg.ignore_env_outputs = true;
  off_cfg.flight_depth = 0;
  sim::RunConfig on_cfg = off_cfg;
  on_cfg.flight_depth =
      static_cast<std::int64_t>(telemetry::FlightRecorder::kDefaultDepth);
  on_cfg.gpu.self_profile = true;
  // Armed but silent: the heartbeat deadline checks are on the measured path,
  // the period just never elapses within the run.
  on_cfg.gpu.heartbeat_seconds = 3600.0;

  const auto wl = workloads::make_scp();
  SelfProfPerf perf;
  Cycle off_cycles = 0, on_cycles = 0;
  // Interleaved best-of-3, same estimator as the event-wheel lane. The arm
  // switch is process-global, so each rep disarms before the off run and
  // lets on_cfg re-arm; reset() drops the zone data a rep accumulated.
  // ($LAZYDRAM_SELFPROF=1 would arm the off runs too and void the
  // measurement — don't set it around --perf.)
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    telemetry::SelfProfiler::set_enabled(false);
    const auto off = sim::simulate_full(*wl, off_cfg);
    if (rep == 0 || off.telemetry.profile.run_seconds < perf.off_wall)
      perf.off_wall = off.telemetry.profile.run_seconds;
    off_cycles = off.metrics.core_cycles;

    telemetry::SelfProfiler::instance().reset();
    const auto on = sim::simulate_full(*wl, on_cfg);
    if (rep == 0 || on.telemetry.profile.run_seconds < perf.on_wall)
      perf.on_wall = on.telemetry.profile.run_seconds;
    on_cycles = on.metrics.core_cycles;
  }
  telemetry::SelfProfiler::set_enabled(false);
  telemetry::SelfProfiler::instance().reset();
  LD_ASSERT_MSG(off_cycles == on_cycles,
                "self-profiled run diverged from the unprofiled run");
  return perf;
}

/// File-name-safe spelling of a scheme label ("Dyn-DMS+AMS" -> "Dyn_DMS_AMS").
std::string scheme_file_name(const std::string& scheme) {
  std::string out = scheme;
  for (char& c : out)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  return out;
}

int run_perf(const std::string& out_path, Cycle cycles_per_scheme,
             const std::string& trace_dir) {
  std::vector<SchemePerf> results;
  double total_wall = 0.0;
  for (core::SchemeKind kind : core::all_schemes()) {
    // With --perf-trace, every scheme runs with the full observability layer
    // on and exports a Perfetto-viewable chrome trace into `trace_dir`.
    std::unique_ptr<telemetry::Telemetry> tele;
    if (!trace_dir.empty()) {
      tele = std::make_unique<telemetry::Telemetry>();
      const std::string path =
          trace_dir + "/" + scheme_file_name(core::scheme_name(kind)) + ".json";
      if (!tele->open_chrome_trace(path)) {
        std::fprintf(stderr, "bench_micro: cannot write trace '%s'\n", path.c_str());
        return 1;
      }
      // 1-in-64 lifecycle sampling: the documented traced-run budget
      // (check_perf.py --max-slowdown 3.0 in CI) assumes sampled spans.
      tele->enable_lifecycle(64);
    }
    SchemePerf perf = drive_controller(kind, cycles_per_scheme, tele.get());
    std::printf("perf%c %-16s %8.3f s  %12.0f mem-cycles/s  %10.0f requests/s\n",
                trace_dir.empty() ? ' ' : '*', perf.scheme.c_str(),
                perf.wall_seconds, perf.cycles_per_second(),
                perf.requests_per_second());
    total_wall += perf.wall_seconds;
    results.push_back(std::move(perf));
  }

  // Event-wheel lane: all channels over the same streams, per-tick vs
  // event wheel. Untraced only — the lane measures raw driver throughput.
  WheelPerf wheel;
  if (trace_dir.empty()) {
    wheel = drive_wheel(cycles_per_scheme);
    std::printf("perf  %-16s %8.3f s  %12.0f mem-cycles/s  (per-tick)\n",
                "wheel:legacy", wheel.legacy_wall,
                wheel.legacy_wall == 0.0
                    ? 0.0
                    : static_cast<double>(wheel.mem_cycles) / wheel.legacy_wall);
    std::printf("perf  %-16s %8.3f s  %12.0f mem-cycles/s  (%.2fx)\n",
                "wheel:wheel", wheel.wheel_wall,
                wheel.wheel_wall == 0.0
                    ? 0.0
                    : static_cast<double>(wheel.mem_cycles) / wheel.wheel_wall,
                wheel.speedup());
    total_wall += wheel.legacy_wall + wheel.wheel_wall;
  }

  // Self-profiler overhead lane (untraced only — tracing already dominates
  // the traced lane's overhead, and the gate is about the default path).
  SelfProfPerf selfprof;
  if (trace_dir.empty()) {
    selfprof = measure_selfprof_overhead();
    std::printf("perf  %-16s %8.3f s on / %8.3f s off  (%.3fx overhead)\n",
                "selfprof:e2e", selfprof.on_wall, selfprof.off_wall,
                selfprof.overhead());
    total_wall += selfprof.on_wall + selfprof.off_wall;
  }

  // One end-to-end run (full GPU model, all channels) so controller-level
  // wins that evaporate at system level would show up in the report.
  sim::RunConfig e2e_cfg;
  e2e_cfg.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo,
                                        e2e_cfg.gpu.scheme);
  const auto e2e = sim::simulate_full(*workloads::make_scp(), e2e_cfg);
  const double e2e_wall = e2e.telemetry.profile.run_seconds;
  const double e2e_ccps = e2e.telemetry.profile.core_cycles_per_second;
  std::printf("perf  %-16s %8.3f s  %12.0f core-cycles/s  (end-to-end SCP)\n",
              "Dyn-DMS+AMS", e2e_wall, e2e_ccps);
  total_wall += e2e_wall;

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  telemetry::JsonWriter w(out);
  w.begin_object();
  w.field("benchmark", "bench_micro --perf");
  w.field("config", "fig12 (Table I defaults)");
  w.field("traced", !trace_dir.empty());
  w.field("cycles_per_scheme", static_cast<std::uint64_t>(cycles_per_scheme));
  w.key("schemes");
  w.begin_array();
  for (const SchemePerf& perf : results) {
    w.begin_object();
    w.field("scheme", perf.scheme);
    w.field("wall_seconds", perf.wall_seconds);
    w.field("mem_cycles", static_cast<std::uint64_t>(perf.mem_cycles));
    w.field("mem_cycles_per_second", perf.cycles_per_second());
    w.field("requests_completed", perf.requests_completed);
    w.field("requests_per_second", perf.requests_per_second());
    w.end_object();
  }
  w.end_array();
  if (trace_dir.empty()) {
    w.key("wheel");
    w.begin_object();
    w.field("mem_cycles", static_cast<std::uint64_t>(wheel.mem_cycles));
    w.field("requests_completed", wheel.requests_completed);
    w.field("legacy_wall_seconds", wheel.legacy_wall);
    w.field("wheel_wall_seconds", wheel.wheel_wall);
    w.field("speedup", wheel.speedup());
    w.end_object();
    w.key("self_profile");
    w.begin_object();
    w.field("off_wall_seconds", selfprof.off_wall);
    w.field("on_wall_seconds", selfprof.on_wall);
    w.field("overhead", selfprof.overhead());
    w.end_object();
  }
  w.key("end_to_end");
  w.begin_object();
  w.field("workload", "SCP");
  w.field("scheme", "Dyn-DMS+AMS");
  w.field("wall_seconds", e2e_wall);
  w.field("core_cycles_per_second", e2e_ccps);
  w.end_object();
  w.field("total_wall_seconds", total_wall);
  w.end_object();
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("perf report written to %s (total %.3f s)\n", out_path.c_str(),
              total_wall);
  return 0;
}

/// Whole-string unsigned integer in [lo, hi]; false on anything else
/// (strtoull alone takes "8x" as 8, "x" as 0 and wraps "-3").
bool parse_count(const char* text, unsigned long long lo, unsigned long long hi,
                 unsigned long long& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0 || v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool perf = false;
  std::string out_path = "BENCH_perf.json";
  std::string trace_dir;
  Cycle cycles_per_scheme = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf") == 0) {
      perf = true;
    } else if (std::strcmp(argv[i], "--perf-out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perf-cycles") == 0 && i + 1 < argc) {
      unsigned long long v = 0;
      if (!parse_count(argv[++i], 1, kNeverCycle - 1, v)) {
        std::fprintf(stderr, "bench_micro: --perf-cycles wants a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      cycles_per_scheme = static_cast<Cycle>(v);
    } else if (std::strcmp(argv[i], "--perf-trace") == 0 && i + 1 < argc) {
      // Existing directory to drop one chrome trace per scheme into; turns
      // the harness into the tracing-on overhead measurement.
      trace_dir = argv[++i];
    }
  }
  if (perf) return run_perf(out_path, cycles_per_scheme, trace_dir);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
