#include "sim/experiment.hpp"

#include <stdexcept>

namespace lazydram::sim {

ExperimentRunner::ExperimentRunner(GpuConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
}

ExperimentRunner::ExperimentRunner(const knobs::Cli& cli, GpuConfig cfg)
    : ExperimentRunner(std::move(cfg)) {
  // Only what the line set is stamped in; simulate_full reads the environment.
  engine_.set_jobs(static_cast<unsigned>(cli.get(knobs::kJobs).count));
  if (cli.has(knobs::kCheck)) check_ = cli.get(knobs::kCheck).text;
  cfg_.self_profile |= cli.has(knobs::kSelfProfile);
  if (cli.has(knobs::kHeartbeat)) cfg_.heartbeat_seconds = cli.get(knobs::kHeartbeat).seconds;
}

std::string spec_key(const core::SchemeSpec& spec) {
  std::string key = core::scheme_name(spec.kind);
  if (spec.dms_enabled && !spec.dms_dynamic)
    key += "/d" + std::to_string(spec.static_delay);
  if (spec.ams_enabled && !spec.ams_dynamic)
    key += "/t" + std::to_string(spec.static_th_rbl);
  return key;
}

RunConfig ExperimentRunner::make_config(const core::SchemeSpec& spec,
                                        bool compute_error) const {
  RunConfig config;
  config.gpu = cfg_;
  config.spec = spec;
  config.compute_error = compute_error;
  return config;
}

const RunMetrics& ExperimentRunner::run_keyed(const std::string& workload, RunConfig config,
                                              const std::string& key) {
  const std::string cache_key = workload + "|" + key;
  const auto it = cache_.find(cache_key);
  if (it != cache_.end()) return it->second;

  // A one-job sweep, so the run gets its label-derived telemetry paths and a
  // section in the merged report.
  if (config.check.empty()) config.check = check_;
  std::vector<SweepResult> results =
      engine_.run({SweepJob{workload, std::move(config), cache_key}});
  const SweepResult& r = flushed_.emplace_back(std::move(results[0]));
  if (!r.ok) throw std::runtime_error(r.error);
  return cache_.emplace(cache_key, r.output.metrics).first->second;
}

const RunMetrics& ExperimentRunner::run(const std::string& workload,
                                        const core::SchemeSpec& spec,
                                        bool compute_error) {
  return run_keyed(workload, make_config(spec, compute_error),
                   spec_key(spec) + (compute_error ? "" : "/noerr"));
}

const RunMetrics& ExperimentRunner::run_scheme(const std::string& workload,
                                               core::SchemeKind kind,
                                               bool compute_error) {
  return run(workload, core::make_scheme_spec(kind, cfg_.scheme), compute_error);
}

const RunMetrics& ExperimentRunner::baseline(const std::string& workload) {
  return run_scheme(workload, core::SchemeKind::kBaseline, /*compute_error=*/false);
}

const RunMetrics& ExperimentRunner::run_custom(const std::string& workload,
                                               const RunConfig& config,
                                               const std::string& key) {
  return run_keyed(workload, config, key);
}

void ExperimentRunner::prefetch_custom(const std::string& workload,
                                       const RunConfig& config,
                                       const std::string& key) {
  const std::string cache_key = workload + "|" + key;
  if (cache_.count(cache_key) != 0 || !pending_keys_.insert(cache_key).second) return;
  pending_.push_back(SweepJob{workload, config, cache_key});
  if (config.check.empty()) pending_.back().config.check = check_;
}

void ExperimentRunner::prefetch(const std::string& workload, const core::SchemeSpec& spec,
                                bool compute_error) {
  prefetch_custom(workload, make_config(spec, compute_error),
                  spec_key(spec) + (compute_error ? "" : "/noerr"));
}

void ExperimentRunner::prefetch_scheme(const std::string& workload, core::SchemeKind kind,
                                       bool compute_error) {
  prefetch(workload, core::make_scheme_spec(kind, cfg_.scheme), compute_error);
}

void ExperimentRunner::prefetch_baseline(const std::string& workload) {
  prefetch_scheme(workload, core::SchemeKind::kBaseline, /*compute_error=*/false);
}

std::size_t ExperimentRunner::flush() {
  if (pending_.empty()) return 0;
  std::vector<SweepJob> jobs;
  jobs.swap(pending_);
  pending_keys_.clear();

  std::vector<SweepResult> results = engine_.run(std::move(jobs));
  const std::size_t executed = results.size();
  for (SweepResult& r : results) {
    // Failed jobs stay uncached: the corresponding run_* call retries
    // serially and surfaces the error where the result is actually needed.
    if (r.ok) cache_.emplace(r.label, r.output.metrics);
    flushed_.push_back(std::move(r));
  }
  return executed;
}

bool ExperimentRunner::write_sweep_report(const std::string& path) const {
  if (path.empty()) return false;
  return sim::write_sweep_report(path, flushed_, engine_.profile());
}

}  // namespace lazydram::sim
