#include "sim/simulator.hpp"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "check/context.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/scheduler_registry.hpp"
#include "gpu/gpu_top.hpp"
#include "sim/run_report.hpp"
#include "telemetry/chrome_trace.hpp"

namespace lazydram::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Parses a whole decimal string. strtoull alone would take "8x" as 8 and
// wrap "-3", so the digits must be the whole string.
bool parse_whole(const std::string& text, unsigned long long& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0' && errno == 0;
}

}  // namespace

std::uint64_t trace_sample_from_env() {
  const std::string text = telemetry::env_string("LAZYDRAM_TRACE_SAMPLE");
  if (text.empty()) return 1;
  // Accept "N" or the documented "1/N" spelling.
  unsigned long long v = 0;
  if (parse_whole(text.rfind("1/", 0) == 0 ? text.substr(2) : text, v) && v > 0) return v;
  log_warn("LAZYDRAM_TRACE_SAMPLE='%s' not recognized (want N or 1/N, N > 0); using 1",
           text.c_str());
  return 1;
}

unsigned shard_threads_from_env() {
  const std::string text = telemetry::env_string("LAZYDRAM_SHARD");
  if (text.empty()) return 1;
  unsigned long long v = 0;
  if (parse_whole(text, v) && v >= 1 && v <= 64) return static_cast<unsigned>(v);
  log_warn("LAZYDRAM_SHARD='%s' not recognized (want a lane count 1..64); using 1",
           text.c_str());
  return 1;
}

RunOutput simulate_full(const workloads::Workload& workload, const RunConfig& config) {
  log_level();  // Resolve LAZYDRAM_LOG up front so a typo in it warns even
                // if the run never logs.
  GpuConfig cfg = config.gpu;

  // A/B knob for the state-based power accountant (default on). Strictly
  // passive — results are bit-identical either way; off removes the energy
  // breakdown from every output and the O(1)-per-command bookkeeping.
  if (const std::string pw = telemetry::env_string("LAZYDRAM_POWER"); !pw.empty()) {
    if (pw == "off" || pw == "0")
      cfg.power_accounting = false;
    else if (pw == "on" || pw == "1")
      cfg.power_accounting = true;
    else
      log_warn("LAZYDRAM_POWER='%s' not recognized (want on|off|1|0); ignored",
               pw.c_str());
  }

  // Worker lanes of the event-wheel driver: LAZYDRAM_SHARD=N partitions the
  // memory controllers over N lanes. Results and trace output are
  // bit-identical for every value; a non-default RunConfig/GpuConfig
  // setting wins over the environment.
  if (cfg.shard_threads == 1) cfg.shard_threads = shard_threads_from_env();

  // Self-observability knobs. The profiler arm switch is process-global and
  // sticky: a run that wants it only ever turns it ON (a concurrent sweep
  // sibling may still be profiling), so per-run A/B toggling is left to
  // harnesses that own the whole process (bench_micro --perf).
  if (!cfg.self_profile) {
    if (const std::string sp = telemetry::env_string("LAZYDRAM_SELFPROF"); !sp.empty()) {
      if (sp == "on" || sp == "1")
        cfg.self_profile = true;
      else if (sp != "off" && sp != "0")
        log_warn("LAZYDRAM_SELFPROF='%s' not recognized (want on|off|1|0); ignored",
                 sp.c_str());
    }
  }
  if (cfg.self_profile) telemetry::SelfProfiler::set_enabled(true);
  if (cfg.heartbeat_seconds <= 0.0) {
    if (const std::string hb = telemetry::env_string("LAZYDRAM_HEARTBEAT"); !hb.empty()) {
      char* end = nullptr;
      const double v = std::strtod(hb.c_str(), &end);
      if (end != nullptr && *end == '\0' && v > 0.0)
        cfg.heartbeat_seconds = v;
      else
        log_warn("LAZYDRAM_HEARTBEAT='%s' not recognized (want seconds > 0); ignored",
                 hb.c_str());
    }
  }

  // Resolve the scheduler policy: a configured GpuConfig::policy.name wins,
  // then $LAZYDRAM_POLICY, else "lazy". All paths construct via the
  // SchedulerRegistry — the one construction seam the golden-model diff
  // harness shares (see src/core/scheduler_registry.hpp).
  if (cfg.policy.name.empty()) {
    if (const std::string pol = telemetry::env_string("LAZYDRAM_POLICY"); !pol.empty()) {
      std::string error;
      if (!core::parse_policy_spec(pol, cfg, &error))
        log_warn("LAZYDRAM_POLICY='%s' rejected (%s); using the configured policy",
                 pol.c_str(), error.c_str());
    }
  }

  const gpu::GpuTop::SchedulerFactory factory =
      core::make_scheduler_factory(cfg, config.spec);
  std::string label = config.scheme_label;
  if (label.empty()) label = core::run_label(cfg, config.spec);

  // Resolve the observability configuration: explicit RunConfig paths win,
  // then the environment; window sampling is implied by either output.
  std::string trace_path = config.trace_path;
  if (trace_path.empty() && !config.ignore_env_outputs)
    trace_path = telemetry::env_string("LAZYDRAM_TRACE");
  std::string json_path = config.json_report_path;
  if (json_path.empty() && !config.ignore_env_outputs)
    json_path = telemetry::env_string("LAZYDRAM_JSON");
  std::string trace_format = config.trace_format;
  if (trace_format.empty()) trace_format = telemetry::env_string("LAZYDRAM_TRACE_FORMAT");
  if (trace_format.empty()) trace_format = "jsonl";
  std::uint64_t trace_sample = config.trace_sample;
  if (trace_sample == 0) trace_sample = trace_sample_from_env();

  telemetry::Telemetry tele;
  if (!trace_path.empty()) {
    if (trace_format == "chrome") {
      tele.open_chrome_trace(trace_path, static_cast<double>(cfg.mem_clock_mhz) /
                                             static_cast<double>(cfg.core_clock_mhz));
    } else {
      if (trace_format != "jsonl")
        log_warn("LAZYDRAM_TRACE_FORMAT='%s' not recognized (want jsonl|chrome); "
                 "using jsonl",
                 trace_format.c_str());
      tele.open_jsonl_trace(trace_path);
    }
  }
  // Lifecycle collection rides every traced run (so the tracing-determinism
  // tests cover it) and can be requested alone via config.lifecycle.
  if (config.lifecycle || !trace_path.empty()) tele.enable_lifecycle(trace_sample);
  tele.set_window_sampling(config.window_sampling || !trace_path.empty() ||
                                !json_path.empty());

  // Crash flight recorder: on by default (recording is passive; a dump only
  // fires on a strict-checker throw or LD_ASSERT). An explicit RunConfig
  // depth wins, then $LAZYDRAM_FLIGHT; 0 disables.
  std::int64_t flight_depth = config.flight_depth;
  if (flight_depth < 0) {
    flight_depth = static_cast<std::int64_t>(telemetry::FlightRecorder::kDefaultDepth);
    if (const std::string fl = telemetry::env_string("LAZYDRAM_FLIGHT"); !fl.empty()) {
      char* end = nullptr;
      const long long v = std::strtoll(fl.c_str(), &end, 10);
      if (end != nullptr && *end == '\0' && v >= 0)
        flight_depth = static_cast<std::int64_t>(v);
      else
        log_warn("LAZYDRAM_FLIGHT='%s' not recognized (want an event depth >= 0); ignored",
                 fl.c_str());
    }
  }
  if (flight_depth > 0) tele.enable_flight(static_cast<std::size_t>(flight_depth));

  std::string check_text = config.check;
  if (check_text.empty()) check_text = telemetry::env_string("LAZYDRAM_CHECK");
  check::CheckConfig check_cfg;
  check_cfg.mode = check::parse_check_mode(check_text);
  if (config.check_age_bound != 0) check_cfg.starvation_bound = config.check_age_bound;
  check::CheckContext check_ctx(check_cfg);

  RunOutput out;
  telemetry::SelfZone setup_zone("sim.setup");
  const auto setup_start = std::chrono::steady_clock::now();
  gpu::GpuTop top(cfg, workload, factory, config.row_policy, &tele, &check_ctx);
  top.register_stats(tele.hub());
  out.telemetry.profile.setup_seconds = seconds_since(setup_start);
  setup_zone.close();

  const auto run_start = std::chrono::steady_clock::now();
  bool finished = false;
  {
    telemetry::SelfZone run_zone("sim.run");
    finished = top.run(config.max_core_cycles);
  }
  out.telemetry.profile.run_seconds = seconds_since(run_start);
  LD_ASSERT_MSG(finished, "simulation hit max_core_cycles before completing");

  const auto collect_start = std::chrono::steady_clock::now();
  {
    telemetry::SelfZone collect_zone("sim.collect");
    out.metrics =
        collect_metrics(top, workload, label, config.compute_error, &tele.hub());
  }
  out.telemetry.profile.collect_seconds = seconds_since(collect_start);
  out.telemetry.profile.core_cycles_per_second =
      out.telemetry.profile.run_seconds == 0.0
          ? 0.0
          : static_cast<double>(top.core_cycles()) / out.telemetry.profile.run_seconds;

  // Detach the window series and stat snapshot before `top` dies.
  out.telemetry.windows.reserve(top.num_channels());
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch) {
    const telemetry::WindowSampler* sampler = top.controller(ch).sampler();
    out.telemetry.windows.push_back(sampler != nullptr ? sampler->samples()
                                                       : std::vector<telemetry::WindowSample>{});
  }
  out.telemetry.stats = tele.hub().snapshot();
  if (telemetry::LifecycleCollector* lc = tele.lifecycle()) {
    out.telemetry.lifecycle_enabled = true;
    out.telemetry.lifecycle = lc->summary();
  }

  // Detach the self-attribution before `top` dies: the run loop's wall-time
  // split (core-side vs memory-side vs barrier stall) plus the merged zone
  // tree from every thread that touched the profiler.
  if (cfg.self_profile) {
    const gpu::GpuTop::WheelSelfStats ws = top.self_stats();
    telemetry::SelfProfileReport& sp = out.telemetry.self_profile;
    sp.enabled = true;
    sp.run_wall_seconds = ws.run_wall_seconds;
    sp.serial_seconds = ws.serial_seconds;
    sp.mem_serial_seconds = ws.mem_serial_seconds;
    sp.mem_parallel_wall_seconds = ws.mem_parallel_wall_seconds;
    sp.pool_wall_seconds = ws.pool_wall_seconds;
    sp.barrier_stall_seconds = ws.barrier_stall_seconds;
    sp.serial_spans = ws.serial_spans;
    sp.parallel_epochs = ws.parallel_epochs;
    sp.step_samples = ws.step_samples;
    sp.sm_sample_seconds = ws.sm_sample_seconds;
    sp.icnt_sample_seconds = ws.icnt_sample_seconds;
    sp.partition_sample_seconds = ws.partition_sample_seconds;
    sp.lane_busy_seconds = ws.lane_busy_seconds;
    sp.lanes = ws.lanes;
    telemetry::SelfProfiler::Snapshot snap = telemetry::SelfProfiler::instance().snapshot();
    if (telemetry::ChromeTraceSink* chrome = tele.chrome_sink())
      chrome->write_self_profile(snap);
    sp.zones = std::move(snap.zones);
  }

  // Log-mode violations don't abort the run; make sure they can't scroll
  // away unnoticed either.
  if (check_ctx.total_violations() > 0)
    log_warn("protocol checker found %llu violation(s) in scheme '%s'",
             static_cast<unsigned long long>(check_ctx.total_violations()),
             label.c_str());

  if (!json_path.empty()) write_json_report(json_path, out.metrics, out.telemetry);
  return out;
}

RunMetrics simulate(const workloads::Workload& workload, const RunConfig& config) {
  return simulate_full(workload, config).metrics;
}

RunMetrics simulate_scheme(const workloads::Workload& workload, core::SchemeKind kind,
                           const GpuConfig& gpu) {
  RunConfig config;
  config.gpu = gpu;
  config.spec = core::make_scheme_spec(kind, gpu.scheme);
  return simulate(workload, config);
}

}  // namespace lazydram::sim
