// Sweep engine tests: the determinism guarantee (jobs=1 and jobs=8 produce
// bit-identical RunMetrics across every scheme kind), submission-order
// results, per-job failure capture, --jobs / $LAZYDRAM_JOBS resolution,
// derived telemetry paths and the merged sweep report.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.hpp"
#include "core/scheme.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace lazydram {
namespace {

unsigned hw_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Keeps the engine hermetic: no env-driven telemetry files, no env-driven
/// worker count leaking in from the calling shell.
class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("LAZYDRAM_TRACE");
    ::unsetenv("LAZYDRAM_JSON");
    ::unsetenv("LAZYDRAM_JOBS");
  }
};

using SweepDeterminism = SweepTest;
using SweepFailures = SweepTest;
using SweepJobsConfig = SweepTest;
using SweepReport = SweepTest;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_identical(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.core_cycles, b.core_cycles);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.reads_received, b.reads_received);
  EXPECT_EQ(a.avg_rbl, b.avg_rbl);
  EXPECT_EQ(a.row_energy_nj, b.row_energy_nj);
  EXPECT_EQ(a.access_energy_nj, b.access_energy_nj);
  EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.app_error, b.app_error);
  EXPECT_EQ(a.avg_delay, b.avg_delay);
  EXPECT_EQ(a.avg_th_rbl, b.avg_th_rbl);
  EXPECT_EQ(a.bwutil, b.bwutil);
  EXPECT_EQ(a.l2_hit_rate, b.l2_hit_rate);
  EXPECT_EQ(a.avg_read_latency_mem_cycles, b.avg_read_latency_mem_cycles);
  for (std::uint64_t k = 0; k <= a.rbl_hist.max_key() + 1; ++k)
    EXPECT_EQ(a.rbl_hist.at(k), b.rbl_hist.at(k)) << "rbl bucket " << k;
  for (std::uint64_t k = 0; k <= a.rbl_readonly_hist.max_key() + 1; ++k)
    EXPECT_EQ(a.rbl_readonly_hist.at(k), b.rbl_readonly_hist.at(k))
        << "read-only rbl bucket " << k;
}

/// The acceptance criterion of the sweep engine: fanning a grid out over
/// worker threads changes nothing about any individual result. One job per
/// scheme kind, run with 1 worker and with 8, compared field by field.
TEST_F(SweepDeterminism, ParallelMetricsBitIdenticalToSerialAcrossAllSchemes) {
  std::vector<sim::SweepJob> jobs;
  for (const core::SchemeKind kind : core::all_schemes()) {
    sim::SweepJob job;
    job.workload = "SCP";
    job.config.spec = core::make_scheme_spec(kind, job.config.gpu.scheme);
    job.label = "SCP|" + std::string(core::scheme_name(kind));
    jobs.push_back(job);
  }

  sim::SweepEngine serial(1);
  sim::SweepEngine parallel(8);
  const std::vector<sim::SweepResult> a = serial.run(jobs);
  const std::vector<sim::SweepResult> b = parallel.run(jobs);

  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Submission order is preserved regardless of completion order.
    EXPECT_EQ(a[i].label, jobs[i].label);
    EXPECT_EQ(b[i].label, jobs[i].label);
    ASSERT_TRUE(a[i].ok) << a[i].label << ": " << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].label << ": " << b[i].error;
    expect_identical(a[i].output.metrics, b[i].output.metrics);
    // The per-channel window series is part of the guarantee too.
    ASSERT_EQ(a[i].output.telemetry.windows.size(), b[i].output.telemetry.windows.size());
  }

  EXPECT_EQ(serial.profile().jobs, 1u);
  EXPECT_EQ(parallel.profile().jobs, 8u);
  EXPECT_EQ(serial.profile().jobs_submitted, jobs.size());
  EXPECT_EQ(serial.profile().jobs_failed, 0u);
  EXPECT_GT(serial.profile().wall_seconds, 0.0);
  EXPECT_GE(serial.profile().serial_seconds, 0.0);
}

TEST_F(SweepFailures, BadJobIsCapturedWithoutTakingDownTheSweep) {
  std::vector<sim::SweepJob> jobs(3);
  jobs[0].workload = "SCP";
  jobs[0].config.compute_error = false;
  jobs[0].label = "ok-before";
  jobs[1].workload = "NO-SUCH-WORKLOAD";
  jobs[1].label = "bad";
  jobs[2].workload = "SCP";
  jobs[2].config.compute_error = false;
  jobs[2].config.spec = core::make_static_dms_spec(128, jobs[2].config.gpu.scheme);
  jobs[2].label = "ok-after";

  sim::SweepEngine engine(2);
  const std::vector<sim::SweepResult> r = engine.run(jobs);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_TRUE(r[0].ok);
  EXPECT_FALSE(r[1].ok);
  EXPECT_NE(r[1].error.find("unknown workload"), std::string::npos) << r[1].error;
  EXPECT_TRUE(r[2].ok);
  EXPECT_EQ(r[0].label, "ok-before");
  EXPECT_EQ(r[1].label, "bad");
  EXPECT_EQ(r[2].label, "ok-after");
  EXPECT_EQ(engine.profile().jobs_submitted, 3u);
  EXPECT_EQ(engine.profile().jobs_failed, 1u);
}

TEST_F(SweepJobsConfig, DefaultJobsHonorsEnvAndFallsBackToHardware) {
  ::setenv("LAZYDRAM_JOBS", "3", 1);
  EXPECT_EQ(sim::default_jobs(), 3u);
  ::setenv("LAZYDRAM_JOBS", "not-a-number", 1);
  EXPECT_EQ(sim::default_jobs(), hw_jobs());
  ::setenv("LAZYDRAM_JOBS", "-2", 1);
  EXPECT_EQ(sim::default_jobs(), hw_jobs());
  ::unsetenv("LAZYDRAM_JOBS");
  EXPECT_EQ(sim::default_jobs(), hw_jobs());
}

TEST_F(SweepJobsConfig, ParseJobsFindsTheFlagAnywhereAndRejectsGarbage) {
  // What a bench's runner would run with: --jobs, else LAZYDRAM_JOBS, else
  // the hardware; a bad --jobs is a usage error.
  const auto jobs = [](std::vector<std::string> args, std::string* error = nullptr) {
    std::vector<char*> argv;
    static char name[] = "bench";
    argv.push_back(name);
    for (std::string& a : args) argv.push_back(a.data());
    knobs::Cli cli(knobs::bench_rows(), "[ARGS]", 8);
    std::string e;
    if (!cli.parse(static_cast<int>(argv.size()), argv.data(), &e)) {
      if (error != nullptr) *error = e;
      return 0u;
    }
    return sim::SweepEngine(static_cast<unsigned>(cli.get(knobs::kJobs).count)).jobs();
  };
  EXPECT_EQ(jobs({"--jobs", "4"}), 4u);
  EXPECT_EQ(jobs({"positional", "--jobs", "2", "trailing"}), 2u);
  EXPECT_EQ(jobs({}), hw_jobs());  // No flag.
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"--jobs"}, {"--jobs", "zero"}, {"--jobs", "0"},
        {"--jobs", "-2"}, {"--jobs", "1025"}, {"--jobs", "--json"}}) {
    std::string error;
    EXPECT_EQ(jobs(bad, &error), 0u) << bad.back();
    EXPECT_NE(error.find("--jobs"), std::string::npos) << error;
  }
  ::setenv("LAZYDRAM_JOBS", "5", 1);
  EXPECT_EQ(jobs({}), 5u);               // Flag absent -> env.
  EXPECT_EQ(jobs({"--jobs", "4"}), 4u);  // Flag beats env.
  ::unsetenv("LAZYDRAM_JOBS");
}

TEST_F(SweepJobsConfig, EngineResolvesZeroThroughDefaults) {
  ::setenv("LAZYDRAM_JOBS", "6", 1);
  sim::SweepEngine engine(0);
  EXPECT_EQ(engine.jobs(), 6u);
  engine.set_jobs(2);
  EXPECT_EQ(engine.jobs(), 2u);
  engine.set_jobs(0);
  EXPECT_EQ(engine.jobs(), 6u);
  ::unsetenv("LAZYDRAM_JOBS");
}

TEST(SweepPaths, SanitizeLabelKeepsOnlyFilenameSafeCharacters) {
  EXPECT_EQ(sim::sanitize_label("SCP|Dyn-DMS"), "SCP_Dyn-DMS");
  EXPECT_EQ(sim::sanitize_label("a b/c:d"), "a_b_c_d");
  EXPECT_EQ(sim::sanitize_label("safe.name_1-2"), "safe.name_1-2");
}

TEST(SweepPaths, DerivedOutputPathSplicesLabelBeforeExtension) {
  EXPECT_EQ(sim::derived_output_path("runs/trace.jsonl", "SCP|base"),
            "runs/trace.SCP_base.jsonl");
  EXPECT_EQ(sim::derived_output_path("report.json", "x"), "report.x.json");
  EXPECT_EQ(sim::derived_output_path("report", "x"), "report.x");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(sim::derived_output_path("a.b/report", "x"), "a.b/report.x");
}

// Regression: two jobs carrying the same label used to derive the same
// telemetry path and silently overwrite each other's report. Duplicate
// labels now get the submission index spliced in, so every job keeps its
// own file.
TEST_F(SweepReport, DuplicateLabelsGetDistinctDerivedPaths) {
  const std::string base = ::testing::TempDir() + "dup_report.json";
  ::setenv("LAZYDRAM_JSON", base.c_str(), 1);

  std::vector<sim::SweepJob> jobs(2);
  jobs[0].workload = "SCP";
  jobs[0].config.compute_error = false;
  jobs[0].label = "SCP|base";
  jobs[1].workload = "SCP";
  jobs[1].config.compute_error = false;
  jobs[1].config.spec =
      core::make_static_dms_spec(128, jobs[1].config.gpu.scheme);
  jobs[1].label = "SCP|base";  // Same label, different scheme.

  sim::SweepEngine engine(1);
  const std::vector<sim::SweepResult> r = engine.run(jobs);
  ::unsetenv("LAZYDRAM_JSON");
  ASSERT_EQ(r.size(), 2u);
  ASSERT_TRUE(r[0].ok) << r[0].error;
  ASSERT_TRUE(r[1].ok) << r[1].error;

  const std::string path0 =
      sim::derived_output_path(base, std::string("SCP|base") + ".0");
  const std::string path1 =
      sim::derived_output_path(base, std::string("SCP|base") + ".1");
  ASSERT_NE(path0, path1);
  const std::string doc0 = read_file(path0);
  const std::string doc1 = read_file(path1);
  EXPECT_FALSE(doc0.empty()) << path0;
  EXPECT_FALSE(doc1.empty()) << path1;
  // Each report reflects its own job's scheme, proving neither overwrote
  // the other.
  EXPECT_NE(doc0, doc1);
  std::remove(path0.c_str());
  std::remove(path1.c_str());
}

// Regression: a run the ExperimentRunner had not prefetched bypassed the
// engine and wrote the bare $LAZYDRAM_JSON path, where the next such run
// overwrote it. It now runs as a one-job sweep with its own derived path and
// its own section in the merged report.
TEST_F(SweepReport, UnprefetchedRunnerJobGetsItsOwnDerivedReport) {
  const std::string base = ::testing::TempDir() + "runner_report.json";
  std::remove(base.c_str());
  ::setenv("LAZYDRAM_JSON", base.c_str(), 1);

  sim::ExperimentRunner runner;
  const core::SchemeSpec dms =
      core::make_scheme_spec(core::SchemeKind::kStaticDms, runner.config().scheme);
  runner.prefetch_baseline("SCP");
  ASSERT_EQ(runner.flush(), 1u);
  runner.run("SCP", dms, /*compute_error=*/false);  // Not prefetched.
  ::unsetenv("LAZYDRAM_JSON");

  const std::string baseline_path =
      sim::derived_output_path(base, "SCP|Baseline/noerr");
  const std::string dms_path =
      sim::derived_output_path(base, "SCP|" + sim::spec_key(dms) + "/noerr");
  ASSERT_NE(baseline_path, dms_path);
  const std::string baseline_doc = read_file(baseline_path);
  const std::string dms_doc = read_file(dms_path);
  EXPECT_NE(baseline_doc.find("\"scheme\":\"Baseline\""), std::string::npos) << baseline_path;
  EXPECT_NE(dms_doc.find("\"scheme\":\"Static-DMS\""), std::string::npos) << dms_path;
  EXPECT_TRUE(read_file(base).empty()) << "a run wrote the bare path " << base;

  const std::string merged = ::testing::TempDir() + "runner_merged.json";
  ASSERT_TRUE(runner.write_sweep_report(merged));
  const std::string doc = read_file(merged);
  EXPECT_NE(doc.find("\"label\":\"SCP|Baseline/noerr\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"label\":\"SCP|" + sim::spec_key(dms) + "/noerr\""),
            std::string::npos);
  std::remove(merged.c_str());
  std::remove(baseline_path.c_str());
  std::remove(dms_path.c_str());
  std::remove(base.c_str());
}

TEST_F(SweepReport, MergedReportContainsRunsThenProfile) {
  std::vector<sim::SweepJob> jobs(1);
  jobs[0].workload = "SCP";
  jobs[0].config.compute_error = false;
  jobs[0].label = "SCP|baseline";

  sim::SweepEngine engine(1);
  const std::vector<sim::SweepResult> results = engine.run(jobs);
  ASSERT_TRUE(results[0].ok);

  const std::string path = ::testing::TempDir() + "sweep_report.json";
  ASSERT_TRUE(sim::write_sweep_report(path, results, engine.profile()));
  const std::string doc = read_file(path);
  const std::size_t runs_pos = doc.find("\"runs\":[");
  const std::size_t profile_pos = doc.find("\"profile\":{");
  ASSERT_NE(runs_pos, std::string::npos) << doc;
  ASSERT_NE(profile_pos, std::string::npos) << doc;
  EXPECT_LT(runs_pos, profile_pos);  // Deterministic content leads.
  EXPECT_NE(doc.find("\"label\":\"SCP|baseline\""), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"speedup\":"), std::string::npos);
  EXPECT_NE(doc.find("\"per_job_seconds\":["), std::string::npos);

  EXPECT_FALSE(sim::write_sweep_report("/no-such-dir/sweep.json", results,
                                       engine.profile()));
}

}  // namespace
}  // namespace lazydram
