// Memoizing experiment runner shared by the benches: each (workload, scheme,
// config-variant) simulation runs once per process and is cached, so a bench
// that prints several views of the same runs (e.g. Fig. 12a-d) pays for them
// once.
//
// Benches declare their whole grid up front with the prefetch_* mirrors of
// the run_* calls, then flush(): the pending jobs fan out across the
// SweepEngine's worker threads (knobs::kJobs) and land in the
// cache, after which the run_* calls are pure lookups. Results are inserted
// in submission order and each job is fully isolated, so bench output is
// byte-identical whatever the job count; anything not prefetched runs as a
// one-job sweep on first use, so it still gets its label-derived telemetry
// paths.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/knobs.hpp"
#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace lazydram::sim {

class ExperimentRunner {
 public:
  explicit ExperimentRunner(GpuConfig cfg = GpuConfig{});

  /// A bench driver's runner: the command line's --jobs, --check,
  /// --self-profile and --heartbeat apply to every run it launches.
  explicit ExperimentRunner(const knobs::Cli& cli, GpuConfig cfg = GpuConfig{});

  /// Runs `workload` under `spec` (cached). Application error is computed
  /// for AMS-bearing schemes unless `compute_error` is false.
  const RunMetrics& run(const std::string& workload, const core::SchemeSpec& spec,
                        bool compute_error = true);

  /// Runs one of the seven named paper schemes (cached).
  const RunMetrics& run_scheme(const std::string& workload, core::SchemeKind kind,
                               bool compute_error = true);

  /// Baseline FR-FCFS run (cached).
  const RunMetrics& baseline(const std::string& workload);

  /// Fully custom run; `key` must uniquely identify the configuration.
  const RunMetrics& run_custom(const std::string& workload, const RunConfig& config,
                               const std::string& key);

  // --- Parallel prefetch ---------------------------------------------------

  /// Queue the run_* counterpart's job for the next flush() (no-ops when the
  /// result is already cached or already queued).
  void prefetch(const std::string& workload, const core::SchemeSpec& spec,
                bool compute_error = true);
  void prefetch_scheme(const std::string& workload, core::SchemeKind kind,
                       bool compute_error = true);
  void prefetch_baseline(const std::string& workload);
  void prefetch_custom(const std::string& workload, const RunConfig& config,
                       const std::string& key);

  /// Runs every queued job across jobs() worker threads and caches the
  /// results in submission order. A failed job is logged and left uncached
  /// (its run_* call retries it and throws its error). Returns the number of
  /// jobs executed.
  std::size_t flush();

  /// Merged JSON report of every job run so far, flushed or run on first
  /// use (per-job metrics / windows / stats plus the sweep's wall-clock
  /// profile); see sim::write_sweep_report. Empty `path` is a no-op
  /// returning false.
  bool write_sweep_report(const std::string& path) const;

  const SweepProfile& sweep_profile() const { return engine_.profile(); }

  const GpuConfig& config() const { return cfg_; }

  std::size_t runs_executed() const { return cache_.size(); }

 private:
  RunConfig make_config(const core::SchemeSpec& spec, bool compute_error) const;
  const RunMetrics& run_keyed(const std::string& workload, RunConfig config,
                              const std::string& key);

  GpuConfig cfg_;
  std::string check_;  ///< --check, stamped into every run whose `check` is empty.
  std::map<std::string, RunMetrics> cache_;

  SweepEngine engine_;
  std::vector<SweepJob> pending_;
  std::set<std::string> pending_keys_;
  std::vector<SweepResult> flushed_;  ///< Every job run, for the merged sweep report.
};

/// Cache key fragment describing a scheme spec (delay/threshold resolved).
std::string spec_key(const core::SchemeSpec& spec);

}  // namespace lazydram::sim
