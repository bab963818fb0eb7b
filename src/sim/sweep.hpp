// Deterministic parallel sweep engine. Every figure reproduction runs a grid
// of (workload, config) simulations that are fully independent — each job
// builds its own GpuTop and Telemetry — so the engine fans them out across a
// thread pool and returns the results in submission order. Guarantees:
//
//   * Determinism: RunMetrics / RunTelemetry of each job are bit-identical
//     to a serial run — a job never shares mutable state with another job,
//     and results are stored by submission index, so tables, CSV and JSON
//     reports built from a sweep are byte-identical whatever `jobs` is.
//   * Telemetry isolation: when $LAZYDRAM_TRACE / $LAZYDRAM_JSON ask for
//     per-run output files, each job writes to a path derived from its label
//     (trace.jsonl -> trace.<label>.jsonl) instead of racing on one file;
//     jobs sharing a label (or whose labels sanitize to the same file name)
//     additionally get their submission index spliced in, so no two jobs
//     ever write the same derived path.
//   * Fault isolation: an exception inside one job is captured into that
//     job's SweepResult; the remaining jobs still run.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace lazydram::sim {

/// One simulation of the sweep: a registered workload name, the full run
/// configuration, and a label unique within the sweep (used for progress
/// logs, derived telemetry paths and the merged report's section names).
struct SweepJob {
  std::string workload;
  RunConfig config;
  std::string label;
};

/// Outcome of one job. `output` is valid iff `ok`.
struct SweepResult {
  std::string workload;
  std::string label;
  RunOutput output;
  bool ok = false;
  std::string error;         ///< Exception text when !ok.
  double wall_seconds = 0.0; ///< Host time this job took on its worker.
};

/// Wall-clock accounting of a sweep: `serial_seconds` is what the same jobs
/// would have cost back-to-back (sum of per-job times), so
/// `serial_seconds / wall_seconds` is the realized parallel speedup.
struct SweepProfile {
  unsigned jobs = 1;             ///< Worker threads used.
  std::size_t jobs_submitted = 0;
  std::size_t jobs_failed = 0;
  double wall_seconds = 0.0;     ///< Whole-sweep host time.
  double serial_seconds = 0.0;   ///< Sum of per-job host times.
  double speedup() const {
    return wall_seconds > 0.0 ? serial_seconds / wall_seconds : 1.0;
  }
};

class SweepEngine {
 public:
  /// `jobs` worker threads; 0 resolves through default_jobs() ($LAZYDRAM_JOBS,
  /// falling back to std::thread::hardware_concurrency()).
  explicit SweepEngine(unsigned jobs = 0);

  unsigned jobs() const { return jobs_; }

  /// Re-targets the worker count for subsequent run() calls (0 resolves
  /// through default_jobs() again).
  void set_jobs(unsigned jobs);

  /// Runs every job (at most jobs() concurrently) and returns the results in
  /// submission order. Accumulates into profile() across calls. The sweep
  /// heartbeat beats at the jobs' GpuConfig::heartbeat_seconds or kHeartbeat.
  std::vector<SweepResult> run(std::vector<SweepJob> sweep_jobs);

  const SweepProfile& profile() const { return profile_; }

 private:
  unsigned jobs_;
  SweepProfile profile_;
};

/// knobs::kJobs with the hardware thread count (minimum 1) as its default.
unsigned default_jobs(std::uint64_t set = 0);

/// `label` reduced to [A-Za-z0-9._-] (everything else becomes '_') so it is
/// safe inside a file name.
std::string sanitize_label(const std::string& label);

/// Splices the sanitized label into `base` before its extension:
/// ("runs/trace.jsonl", "SCP|Dyn-DMS") -> "runs/trace.SCP_Dyn-DMS.jsonl".
std::string derived_output_path(const std::string& base, const std::string& label);

/// Merged sweep-level report: one JSON document with a per-job section
/// (label, metrics, windows, stats — deterministic across `jobs` settings)
/// followed by the sweep's wall-clock profile (serial-vs-parallel speedup).
/// Returns false (after log_warn) when the file cannot be opened.
bool write_sweep_report(const std::string& path, const std::vector<SweepResult>& results,
                        const SweepProfile& profile);

}  // namespace lazydram::sim
