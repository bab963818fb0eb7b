#include "sim/simulator.hpp"

#include <chrono>

#include "check/context.hpp"
#include "common/assert.hpp"
#include "common/knobs.hpp"
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

}  // namespace

RunOutput simulate_full(const workloads::Workload& workload, const RunConfig& config) {
  log_level();  // Resolve LAZYDRAM_LOG up front so a typo in it warns even
                // if the run never logs.
  GpuConfig cfg = config.gpu;

  // The profiler arm switch is process-global and sticky: a run only ever
  // turns it ON (a concurrent sweep sibling may still be profiling).
  cfg.self_profile = knobs::on(knobs::kSelfProfile, cfg.self_profile);
  if (cfg.self_profile) telemetry::SelfProfiler::set_enabled(true);
  cfg.heartbeat_seconds = knobs::seconds(knobs::kHeartbeat, cfg.heartbeat_seconds);

  // Every policy is built by the SchedulerRegistry, the construction seam
  // the golden-model diff harness shares.
  if (cfg.policy.name.empty()) {
    if (const std::string pol = knobs::text(knobs::kPolicy); !pol.empty()) {
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

  // Window sampling is implied by either output file.
  const std::string trace_path = config.ignore_env_outputs
                                     ? config.trace_path
                                     : knobs::text(knobs::kTrace, config.trace_path);
  const std::string json_path = config.ignore_env_outputs
                                    ? config.json_report_path
                                    : knobs::text(knobs::kJson, config.json_report_path);
  const std::string trace_format = knobs::text(knobs::kTraceFormat, config.trace_format);

  telemetry::Telemetry tele;
  if (!trace_path.empty()) {
    if (trace_format == "chrome")
      tele.open_chrome_trace(trace_path, static_cast<double>(cfg.mem_clock_mhz) /
                                             static_cast<double>(cfg.core_clock_mhz));
    else
      tele.open_jsonl_trace(trace_path);
  }
  // Lifecycle collection rides every traced run (so the tracing-determinism
  // tests cover it) and can be requested alone via config.lifecycle.
  if (config.lifecycle || !trace_path.empty())
    tele.enable_lifecycle(knobs::count(knobs::kTraceSample, config.trace_sample));
  tele.set_window_sampling(config.window_sampling || !trace_path.empty() ||
                                !json_path.empty());

  // Flight recorder: passive; a dump only fires on a strict-checker throw or
  // LD_ASSERT. 0 is a depth the caller may set, so -1 marks the field unset.
  const std::uint64_t flight_depth =
      config.flight_depth >= 0 ? static_cast<std::uint64_t>(config.flight_depth)
                               : knobs::count(knobs::kFlight);
  if (flight_depth > 0) tele.enable_flight(static_cast<std::size_t>(flight_depth));

  check::CheckConfig check_cfg;
  check_cfg.mode = check::parse_check_mode(knobs::text(knobs::kCheck, config.check));
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
  // split (core side vs memory-only spans) plus the merged zone
  // tree from every thread that touched the profiler.
  if (cfg.self_profile) {
    const gpu::GpuTop::WheelSelfStats ws = top.self_stats();
    telemetry::SelfProfileReport& sp = out.telemetry.self_profile;
    sp.enabled = true;
    sp.run_wall_seconds = ws.run_wall_seconds;
    sp.serial_seconds = ws.serial_seconds;
    sp.mem_serial_seconds = ws.mem_serial_seconds;
    sp.serial_spans = ws.serial_spans;
    sp.step_samples = ws.step_samples;
    sp.sm_sample_seconds = ws.sm_sample_seconds;
    sp.icnt_sample_seconds = ws.icnt_sample_seconds;
    sp.partition_sample_seconds = ws.partition_sample_seconds;
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

}  // namespace lazydram::sim
