// Machine-readable run report: one JSON document per run with the
// end-of-run metrics, the full telemetry stat snapshot, the per-window time
// series, and the wall-clock profile. Bench binaries write this next to
// their human-readable tables (knobs::kJson names the path).
#pragma once

#include <cstdio>
#include <string>

#include "sim/metrics.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace lazydram::sim {

/// Writes `metrics` + `telemetry` as one JSON document to `path`. Returns
/// false (after log_warn) when the file cannot be opened.
bool write_json_report(const std::string& path, const RunMetrics& metrics,
                       const telemetry::RunTelemetry& telemetry);

/// Same, onto an already-open stream (exposed for multi-run bench reports).
void write_json_report(std::FILE* out, const RunMetrics& metrics,
                       const telemetry::RunTelemetry& telemetry);

// --- Section writers -------------------------------------------------------
// Building blocks of the run report, exposed so the sweep-level merged
// report (sim/sweep.hpp) emits byte-identical per-run sections. Each writes
// one key ("metrics" / "windows" / "stats") into the currently open object.

void write_metrics_section(telemetry::JsonWriter& w, const RunMetrics& metrics);
void write_windows_section(telemetry::JsonWriter& w,
                           const telemetry::RunTelemetry& telemetry);
void write_stats_section(telemetry::JsonWriter& w,
                         const telemetry::TelemetryHub::Snapshot& stats);

}  // namespace lazydram::sim
