#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "common/knobs.hpp"
#include "common/log.hpp"
#include "sim/run_report.hpp"
#include "telemetry/json.hpp"
#include "telemetry/selfprof.hpp"
#include "workloads/registry.hpp"

namespace lazydram::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Runs one job on the calling thread, capturing failures into the result.
SweepResult run_one(const SweepJob& job) {
  SweepResult r;
  r.workload = job.workload;
  r.label = job.label;
  const auto start = std::chrono::steady_clock::now();
  try {
    telemetry::SelfZone zone("sweep.job");
    // find_workload, not make_workload: a bad name fails its job, not the sweep.
    if (const auto wl = workloads::find_workload(job.workload)) {
      r.output = simulate_full(*wl, job.config);
      r.ok = true;
    } else {
      r.error = "unknown workload: " + job.workload;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  } catch (...) {
    r.error = "unknown exception";
  }
  r.wall_seconds = seconds_since(start);
  return r;
}

}  // namespace

SweepEngine::SweepEngine(unsigned jobs) : jobs_(default_jobs(jobs)) {
  profile_.jobs = jobs_;
}

void SweepEngine::set_jobs(unsigned jobs) {
  jobs_ = default_jobs(jobs);
  profile_.jobs = jobs_;
}

std::vector<SweepResult> SweepEngine::run(std::vector<SweepJob> sweep_jobs) {
  // Resolve env-driven telemetry paths once, up front: with several jobs in
  // flight a single $LAZYDRAM_TRACE / $LAZYDRAM_JSON file would be a write
  // race, so each job gets a path derived from its label instead. (This also
  // upgrades serial sweeps, where the runs used to overwrite one file.)
  const std::string env_trace = knobs::text(knobs::kTrace);
  const std::string env_json = knobs::text(knobs::kJson);
  // Two jobs may carry the same label (callers build labels from workload x
  // scheme grids, and repeated jobs are legitimate); label-derived paths
  // would then silently overwrite each other. Disambiguate duplicates with
  // the submission index, which is unique and stable across `jobs` settings.
  std::map<std::string, unsigned> label_uses;
  for (const SweepJob& job : sweep_jobs) ++label_uses[sanitize_label(job.label)];
  for (std::size_t i = 0; i < sweep_jobs.size(); ++i) {
    SweepJob& job = sweep_jobs[i];
    std::string leaf = job.label;
    // append, not "." + ...: GCC 12 flags that -Wrestrict.
    if (label_uses[sanitize_label(job.label)] > 1) leaf.append(".").append(std::to_string(i));
    if (job.config.trace_path.empty() && !env_trace.empty())
      job.config.trace_path = derived_output_path(env_trace, leaf);
    if (job.config.json_report_path.empty() && !env_json.empty())
      job.config.json_report_path = derived_output_path(env_json, leaf);
  }

  // Resolve the lazily-cached log level on this thread before any worker can
  // race on the first lookup.
  log_level();

  std::vector<SweepResult> results(sweep_jobs.size());
  const auto sweep_start = std::chrono::steady_clock::now();
  telemetry::SelfZone sweep_zone("sweep.run");

  // Sweep-level heartbeat: after each job completes, at most once per
  // period, report done/total and an ETA extrapolated from the mean job time.
  double heartbeat_seconds = 0.0;
  for (const SweepJob& job : sweep_jobs)
    heartbeat_seconds = std::max(heartbeat_seconds, job.config.gpu.heartbeat_seconds);
  heartbeat_seconds = knobs::seconds(knobs::kHeartbeat, heartbeat_seconds);
  std::mutex hb_mu;
  auto hb_next = std::chrono::steady_clock::now() +
                 std::chrono::duration<double>(heartbeat_seconds);
  std::atomic<std::size_t> done{0};
  const auto maybe_beat = [&] {
    if (heartbeat_seconds <= 0.0) return;
    const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(hb_mu);
    if (now < hb_next) return;
    hb_next = now + std::chrono::duration<double>(heartbeat_seconds);
    const double elapsed = seconds_since(sweep_start);
    const double eta =
        d > 0 ? elapsed * static_cast<double>(sweep_jobs.size() - d) /
                    static_cast<double>(d)
              : 0.0;
    log_status("hb sweep %zu/%zu jobs done, %.1fs elapsed, eta=%.0fs", d,
               sweep_jobs.size(), elapsed, eta);
  };

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sweep_jobs.size()) return;
      log_info("sweep [%zu/%zu] %s", i + 1, sweep_jobs.size(),
               sweep_jobs[i].label.c_str());
      results[i] = run_one(sweep_jobs[i]);
      maybe_beat();
    }
  };
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, sweep_jobs.size()));
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  profile_.wall_seconds += seconds_since(sweep_start);
  profile_.jobs_submitted += results.size();
  for (const SweepResult& r : results) {
    profile_.serial_seconds += r.wall_seconds;
    if (!r.ok) {
      ++profile_.jobs_failed;
      log_warn("sweep job '%s' (%s) failed: %s", r.label.c_str(), r.workload.c_str(),
               r.error.c_str());
    }
  }
  return results;
}

unsigned default_jobs(std::uint64_t set) {
  if (const std::uint64_t jobs = knobs::count(knobs::kJobs, set))
    return static_cast<unsigned>(jobs);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

std::string derived_output_path(const std::string& base, const std::string& label) {
  const std::string leaf = sanitize_label(label);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + "." + leaf;
  return base.substr(0, dot) + "." + leaf + base.substr(dot);
}

bool write_sweep_report(const std::string& path, const std::vector<SweepResult>& results,
                        const SweepProfile& profile) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    log_warn("cannot open sweep report file '%s'; report skipped", path.c_str());
    return false;
  }
  telemetry::JsonWriter w(out);
  w.begin_object();

  // Per-job sections first: everything in here is deterministic, so two
  // sweeps of the same grid diff cleanly down to the trailing profile.
  w.key("runs");
  w.begin_array();
  for (const SweepResult& r : results) {
    w.begin_object();
    w.field("label", r.label);
    w.field("workload", r.workload);
    w.field("ok", r.ok);
    if (r.ok) {
      write_metrics_section(w, r.output.metrics);
      write_windows_section(w, r.output.telemetry);
      write_stats_section(w, r.output.telemetry.stats);
    } else {
      w.field("error", r.error);
    }
    w.end_object();
  }
  w.end_array();

  w.key("profile");
  w.begin_object();
  w.field("jobs", profile.jobs);
  w.field("jobs_submitted", static_cast<std::uint64_t>(profile.jobs_submitted));
  w.field("jobs_failed", static_cast<std::uint64_t>(profile.jobs_failed));
  w.field("wall_seconds", profile.wall_seconds);
  w.field("serial_seconds", profile.serial_seconds);
  w.field("speedup", profile.speedup());
  w.key("per_job_seconds");
  w.begin_array();
  for (const SweepResult& r : results) {
    w.begin_object();
    w.field("label", r.label);
    w.field("seconds", r.wall_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  std::fputc('\n', out);
  std::fclose(out);
  return true;
}

}  // namespace lazydram::sim
