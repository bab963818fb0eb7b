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

struct RunConfig {
  GpuConfig gpu{};                       ///< Table I defaults.
  /// Scheme of the lazy scheduler. A different policy is named by
  /// gpu.policy.name (see core::parse_policy_spec); $LAZYDRAM_POLICY
  /// applies when that is empty.
  core::SchemeSpec spec{};
  RowPolicy row_policy = RowPolicy::kOpenRow;
  bool compute_error = true;
  Cycle max_core_cycles = 200'000'000;
  std::string scheme_label;  ///< Defaults to the spec's scheme name.

  // --- Observability (all off by default; enabling any of it is guaranteed
  // not to change RunMetrics) ---
  std::string trace_path;   ///< Event/lifecycle trace; "" defers to $LAZYDRAM_TRACE.
  /// Trace file format: "jsonl" (default) or "chrome" (Perfetto-viewable
  /// Chrome Trace Event array); "" defers to $LAZYDRAM_TRACE_FORMAT.
  std::string trace_format;
  /// Lifecycle sampling: record 1 read request in N. 0 defers to
  /// $LAZYDRAM_TRACE_SAMPLE (accepted as "N" or "1/N"), default 1.
  std::uint64_t trace_sample = 0;
  /// Collect per-request lifecycles even without a trace file (summaries
  /// land in RunTelemetry / the JSON report). Implied by trace_path.
  bool lifecycle = false;
  std::string json_report_path;  ///< JSON run report; "" defers to $LAZYDRAM_JSON.
  bool window_sampling = false;  ///< Forced on when either path resolves non-empty.
  /// Suppress the $LAZYDRAM_TRACE/$LAZYDRAM_JSON fallbacks for this run.
  /// Fan-out drivers (run_multitenant baselines) set this so parallel lanes
  /// never race on one env-named output file.
  bool ignore_env_outputs = false;
  /// Crash flight recorder depth: last N telemetry events kept per channel
  /// for the dump a strict-checker throw or LD_ASSERT leaves behind
  /// ($LAZYDRAM_FLIGHT_DUMP, default lazydram_flight.json). -1 defers to
  /// $LAZYDRAM_FLIGHT (default: 64, i.e. always on); 0 disables. Recording
  /// is passive — no output exists unless a dump fires, and enabling it
  /// never changes results or trace bytes.
  std::int64_t flight_depth = -1;

  // --- Verification ---
  /// Protocol-checker mode: "off" | "log" | "strict"; "" defers to
  /// $LAZYDRAM_CHECK. In strict mode the first violation throws
  /// check::ViolationError.
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

/// Lifecycle sampling rate from $LAZYDRAM_TRACE_SAMPLE, spelled "N" or
/// "1/N" with N > 0. Unset gives 1; anything else warns and gives 1.
std::uint64_t trace_sample_from_env();

/// Longest accepted heartbeat period: one year, in seconds.
inline constexpr double kMaxHeartbeatSeconds = 31'536'000.0;

/// Heartbeat period in seconds parsed from `text`, the value of `source`
/// ("LAZYDRAM_HEARTBEAT", "--heartbeat"): a finite number with
/// 0 < v <= kMaxHeartbeatSeconds. Anything else warns and returns 0, which
/// leaves the heartbeat off.
double parse_heartbeat_seconds(const std::string& text, const char* source);

/// Convenience: run one of the seven paper schemes with default config.
RunMetrics simulate_scheme(const workloads::Workload& workload, core::SchemeKind kind,
                           const GpuConfig& gpu = GpuConfig{});

}  // namespace lazydram::sim
