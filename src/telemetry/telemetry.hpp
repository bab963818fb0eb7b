// Per-run telemetry context: one Tracer (with optional owned JSONL sink),
// one TelemetryHub, and the window-sampling switch. sim::simulate builds one
// of these from RunConfig + environment (LAZYDRAM_TRACE / LAZYDRAM_JSON) and
// threads it through GpuTop; benches that drive a MemoryController directly
// can build their own.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "telemetry/flight.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/selfprof.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/window_sampler.hpp"

namespace lazydram::telemetry {

class ChromeTraceSink;

/// Wall-clock profile of one simulated run (host-side observability: how
/// fast the simulator itself is going).
struct RunProfile {
  double setup_seconds = 0.0;    ///< GpuTop construction (incl. memory init).
  double run_seconds = 0.0;      ///< The cycle loop.
  double collect_seconds = 0.0;  ///< Metric collection + error computation.
  double core_cycles_per_second = 0.0;
};

class Telemetry {
 public:
  Telemetry() = default;

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Attaches a JSONL file sink at `path`. On open failure a warning is
  /// logged and the tracer stays disabled; returns whether the sink opened.
  bool open_jsonl_trace(const std::string& path);

  /// Attaches a Chrome Trace Event Format sink at `path` (Perfetto /
  /// chrome://tracing). `core_to_mem` converts core-cycle stamps onto the
  /// memory-cycle trace axis (mem_clock_mhz / core_clock_mhz). Returns
  /// whether the sink opened.
  bool open_chrome_trace(const std::string& path, double core_to_mem = 1.0);

  /// Creates the request-lifecycle collector (sampling 1 request in
  /// `sample_every`). Call before wiring components; idempotent only in the
  /// sense that the last call wins.
  void enable_lifecycle(std::uint64_t sample_every = 1);

  /// The lifecycle collector, or nullptr when not enabled.
  LifecycleCollector* lifecycle() { return lifecycle_.get(); }

  /// Creates the crash flight recorder (last `depth` events per channel) and
  /// wires it into the tracer. Recording is passive — nothing is written
  /// unless a strict-checker throw or LD_ASSERT triggers a dump.
  void enable_flight(std::size_t depth = FlightRecorder::kDefaultDepth);

  /// The flight recorder, or nullptr when not enabled.
  FlightRecorder* flight() { return flight_.get(); }

  /// The owned sink as a ChromeTraceSink, or nullptr when the trace format
  /// is JSONL / no sink is attached — for post-run extras like the
  /// self-profile process, which only the Chrome format carries.
  ChromeTraceSink* chrome_sink();

  Tracer& tracer() { return tracer_; }
  TelemetryHub& hub() { return hub_; }
  const TelemetryHub& hub() const { return hub_; }

  void set_window_sampling(bool on) { window_sampling_ = on; }
  bool window_sampling() const { return window_sampling_; }

 private:
  Tracer tracer_;
  TelemetryHub hub_;
  std::unique_ptr<TraceSink> owned_sink_;
  std::unique_ptr<LifecycleCollector> lifecycle_;
  std::unique_ptr<FlightRecorder> flight_;
  bool window_sampling_ = false;
};

/// Wall-clock self-attribution of one run (telemetry/selfprof + GpuTop's
/// WheelSelfStats, flattened to plain values so sim-layer consumers don't
/// depend on gpu headers). Populated only when GpuConfig::self_profile is
/// set; rendered as the run report's "self_profile" section.
struct SelfProfileReport {
  bool enabled = false;
  std::vector<SelfZoneNode> zones;  ///< Merged zone tree, preorder.
  double run_wall_seconds = 0.0;
  double serial_seconds = 0.0;      ///< SM/core-side (non-mem-span) wall.
  double mem_serial_seconds = 0.0;  ///< Memory-only spans.
  std::uint64_t serial_spans = 0;
  std::uint64_t step_samples = 0;
  double sm_sample_seconds = 0.0;
  double icnt_sample_seconds = 0.0;
  double partition_sample_seconds = 0.0;
  // Always 0: kept only because perfbench still reads them.
  double mem_parallel_wall_seconds = 0.0;
  std::uint64_t parallel_epochs = 0;
};

/// Everything a run's telemetry produced, detached from the simulator
/// objects so it can outlive them: per-channel window series, the final stat
/// snapshot, and the wall-clock profile.
struct RunTelemetry {
  std::vector<std::vector<WindowSample>> windows;  ///< Indexed by channel.
  TelemetryHub::Snapshot stats;
  RunProfile profile;
  bool lifecycle_enabled = false;
  LifecycleSummary lifecycle;  ///< Valid iff lifecycle_enabled.
  SelfProfileReport self_profile;
};

}  // namespace lazydram::telemetry
