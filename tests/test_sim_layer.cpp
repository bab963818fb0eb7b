// sim/ layer tests: scheme construction, spec cache keys, the experiment
// runner's memoization and the report helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/scheme.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

TEST(Scheme, AllSevenSchemesConstruct) {
  const SchemeParams params;
  EXPECT_EQ(core::all_schemes().size(), 7u);
  for (const core::SchemeKind kind : core::all_schemes()) {
    const core::SchemeSpec spec = core::make_scheme_spec(kind, params);
    EXPECT_EQ(spec.kind, kind);
    EXPECT_STRNE(core::scheme_name(kind), "");
  }
}

TEST(Scheme, SpecFlagsMatchKind) {
  const SchemeParams params;
  const auto spec = [&](core::SchemeKind k) { return core::make_scheme_spec(k, params); };
  EXPECT_FALSE(spec(core::SchemeKind::kBaseline).dms_enabled);
  EXPECT_FALSE(spec(core::SchemeKind::kBaseline).ams_enabled);
  EXPECT_TRUE(spec(core::SchemeKind::kStaticDms).dms_enabled);
  EXPECT_FALSE(spec(core::SchemeKind::kStaticDms).dms_dynamic);
  EXPECT_TRUE(spec(core::SchemeKind::kDynDms).dms_dynamic);
  EXPECT_TRUE(spec(core::SchemeKind::kDynCombo).dms_dynamic);
  EXPECT_TRUE(spec(core::SchemeKind::kDynCombo).ams_dynamic);
  EXPECT_EQ(spec(core::SchemeKind::kStaticDms).static_delay, params.static_delay);
  EXPECT_EQ(core::make_static_dms_spec(777, params).static_delay, 777u);
  EXPECT_EQ(core::make_static_ams_spec(3, params).static_th_rbl, 3u);
  const core::SchemeSpec combo = core::make_combo_spec(256, 4, params);
  EXPECT_TRUE(combo.dms_enabled);
  EXPECT_TRUE(combo.ams_enabled);
  EXPECT_EQ(combo.static_delay, 256u);
  EXPECT_EQ(combo.static_th_rbl, 4u);
}

TEST(Experiment, SpecKeysDistinguishParameters) {
  const SchemeParams params;
  EXPECT_NE(sim::spec_key(core::make_static_dms_spec(128, params)),
            sim::spec_key(core::make_static_dms_spec(256, params)));
  EXPECT_NE(sim::spec_key(core::make_static_ams_spec(1, params)),
            sim::spec_key(core::make_static_ams_spec(8, params)));
  EXPECT_EQ(sim::spec_key(core::make_scheme_spec(core::SchemeKind::kDynCombo, params)),
            sim::spec_key(core::make_scheme_spec(core::SchemeKind::kDynCombo, params)));
}

TEST(Experiment, RunnerMemoizesRuns) {
  sim::ExperimentRunner runner;
  const sim::RunMetrics& a = runner.baseline("3MM");
  const std::size_t after_first = runner.runs_executed();
  const sim::RunMetrics& b = runner.baseline("3MM");
  EXPECT_EQ(&a, &b);  // Same cached object.
  EXPECT_EQ(runner.runs_executed(), after_first);
}

TEST(Report, Geomean) {
  EXPECT_DOUBLE_EQ(sim::geomean({}), 1.0);
  EXPECT_NEAR(sim::geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(sim::geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Report, MeanAndRatio) {
  EXPECT_DOUBLE_EQ(sim::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(sim::mean({1.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(sim::ratio(3.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(sim::ratio(3.0, 0.0), 0.0);
}

TEST(Report, BenchWorkloadsNonEmptyAndRegistered) {
  for (const std::string& name : sim::bench_workloads()) {
    EXPECT_FALSE(name.empty());
  }
  EXPECT_GE(sim::bench_workloads().size(), 8u);
}

TEST(Simulator, TraceSampleEnvAcceptsOnlyWholePositiveCounts) {
  const auto sample = [](const char* text) {
    ::setenv("LAZYDRAM_TRACE_SAMPLE", text, 1);
    return sim::trace_sample_from_env();
  };
  EXPECT_EQ(sample("1/16"), 16u);
  EXPECT_EQ(sample("16"), 16u);
  // Malformed values warn and fall back to sampling every request.
  EXPECT_EQ(sample("-3"), 1u);  // strtoull alone wraps this to 2^64 - 3.
  EXPECT_EQ(sample("8x"), 1u);  // ... and reads this as 8.
  EXPECT_EQ(sample("1/0"), 1u);
  EXPECT_EQ(sample("0"), 1u);
  EXPECT_EQ(sample("1/"), 1u);
  EXPECT_EQ(sample(" 8"), 1u);
  EXPECT_EQ(sample("99999999999999999999"), 1u);  // Out of range.
  ::unsetenv("LAZYDRAM_TRACE_SAMPLE");
  EXPECT_EQ(sim::trace_sample_from_env(), 1u);
}

// A heartbeat period is finite seconds in (0, one year]. inf, NaN and
// overflowing values would make the wall-clock deadline arithmetic undefined,
// so they warn and leave the heartbeat off like any other bad value.
TEST(Simulator, HeartbeatPeriodRejectsNonFiniteAndOutOfRange) {
  for (const char* text : {"inf", "nan", "1e300", "0", "-1", "2x"}) {
    SCOPED_TRACE(text);
    ::testing::internal::CaptureStderr();
    const double v = sim::parse_heartbeat_seconds(text, "LAZYDRAM_HEARTBEAT");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(v, 0.0);
    EXPECT_NE(err.find(std::string("LAZYDRAM_HEARTBEAT='") + text + "'"), std::string::npos)
        << err;
  }
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(sim::parse_heartbeat_seconds("0.5", "--heartbeat"), 0.5);
  EXPECT_EQ(sim::parse_heartbeat_seconds("31536000", "--heartbeat"), sim::kMaxHeartbeatSeconds);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  // The --heartbeat flag goes through the same parser.
  char prog[] = "bench", flag[] = "--heartbeat", inf[] = "inf";
  char* argv[] = {prog, flag, inf};
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(sim::parse_heartbeat(3, argv), 0.0);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("--heartbeat='inf'"),
            std::string::npos);
}

}  // namespace
}  // namespace lazydram
