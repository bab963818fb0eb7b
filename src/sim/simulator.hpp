// One-call simulation entry points: build a GPU around a workload and a
// scheduling scheme, run to completion, collect metrics — optionally with
// the full observability layer (event trace, windowed time series, stat
// snapshot, JSON run report) attached.
#pragma once

#include <string>

#include "common/config.hpp"
#include "core/scheme.hpp"
#include "mem/controller.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/workload.hpp"

namespace lazydram::sim {

// Fields backed by a knob row (common/knobs.hpp): a value set here wins over
// the environment; the unset markers are "", 0, and -1 for flight_depth.
struct RunConfig {
  GpuConfig gpu{};                       ///< Table I defaults.
  /// Scheme of the lazy scheduler. A different policy is named by
  /// gpu.policy.name (see core::parse_policy_spec); knobs::kPolicy.
  core::SchemeSpec spec{};
  RowPolicy row_policy = RowPolicy::kOpenRow;
  bool compute_error = true;
  Cycle max_core_cycles = 200'000'000;
  std::string scheme_label;  ///< Defaults to the spec's scheme name.

  // --- Observability (all off by default; enabling any of it is guaranteed
  // not to change RunMetrics) ---
  std::string trace_path;    ///< Event/lifecycle trace; knobs::kTrace.
  std::string trace_format;  ///< "jsonl" or "chrome" (Perfetto); knobs::kTraceFormat.
  std::uint64_t trace_sample = 0;  ///< Record 1 read lifecycle in N; knobs::kTraceSample.
  /// Collect per-request lifecycles even without a trace file (summaries
  /// land in RunTelemetry / the JSON report). Implied by trace_path.
  bool lifecycle = false;
  std::string json_report_path;  ///< JSON run report; knobs::kJson.
  bool window_sampling = false;  ///< Forced on when either path resolves non-empty.
  /// Suppress the kTrace/kJson environment fallbacks for this run.
  /// Fan-out drivers (run_multitenant baselines) set this so parallel lanes
  /// never race on one env-named output file.
  bool ignore_env_outputs = false;
  /// Crash flight recorder depth, knobs::kFlight (dump path
  /// knobs::kFlightDump); 0 disables. Recording is passive: no output exists
  /// unless a dump fires, and it never changes results or trace bytes.
  std::int64_t flight_depth = -1;

  // --- Verification ---
  /// Protocol-checker mode, knobs::kCheck. In strict mode the first
  /// violation throws check::ViolationError.
  std::string check;
  /// Starvation bound for the checker (memory cycles); 0 keeps the default.
  Cycle check_age_bound = 0;
};

/// Runs `workload` under `config` to completion and returns the metrics.
/// Honors the telemetry settings (trace / JSON report / env overrides) but
/// discards the in-memory telemetry results.
RunMetrics simulate(const workloads::Workload& workload, const RunConfig& config);

/// simulate() plus the run's telemetry: per-channel window series, final
/// stat snapshot, wall-clock profile.
struct RunOutput {
  RunMetrics metrics;
  telemetry::RunTelemetry telemetry;
};
RunOutput simulate_full(const workloads::Workload& workload, const RunConfig& config);

}  // namespace lazydram::sim
