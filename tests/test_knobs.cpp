// Knob table tests: every row well formed and listed in EXPERIMENTS.md, one
// parser per kind, the precedence rule (caller, then environment, then
// default), and command-line errors (unknown flag, missing or bad value).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "telemetry/flight.hpp"

namespace lazydram {
namespace {

/// A default-on switch outside the table, so the precedence tests cover
/// knobs::on's "explicit off beats env on" branch.
constexpr knobs::Knob kTestSwitch{.env = "LAZYDRAM_TEST_SWITCH", .kind = knobs::Kind::kSwitch,
                                  .fallback = "on", .doc = "test-only default-on switch"};

/// argv-style parse of `args` (program name prepended); returns the error, or
/// "" when the command line parsed.
std::string parse(knobs::Cli& cli, std::vector<std::string> args) {
  std::vector<char*> argv;
  static char name[] = "prog";
  argv.push_back(name);
  for (std::string& a : args) argv.push_back(a.data());
  std::string error;
  return cli.parse(static_cast<int>(argv.size()), argv.data(), &error) ? "" : error;
}

/// The row's line in EXPERIMENTS.md's "Knobs" table.
std::string markdown_row(const knobs::Knob& k) {
  const auto cell = [](std::string text) {
    std::string out;
    for (const char c : text) out += c == '|' ? std::string("\\|") : std::string(1, c);
    return out.empty() ? std::string("—") : out;
  };
  const std::string var = k.env != nullptr ? std::string("`") + k.env + "`" : "";
  std::string flag;
  if (k.flag != nullptr) {
    flag = std::string("`") + k.flag + (*k.value ? " " : "") + k.value + "`";
  }
  const std::string fallback = *k.fallback ? std::string("`") + k.fallback + "`" : "";
  return "| " + cell(var) + " | " + cell(flag) + " | " + cell(knobs::accepted(k)) + " | " +
         cell(fallback) + " | " + cell(k.doc) + " |";
}

TEST(Knobs, TableRowsAreWellFormed) {
  std::set<std::string> names;
  for (const knobs::Knob* k : knobs::kAll) {
    ASSERT_TRUE(k->env != nullptr || k->flag != nullptr);
    if (k->env != nullptr) {
      EXPECT_TRUE(names.insert(k->env).second) << k->env;
      EXPECT_EQ(std::string(k->env).rfind("LAZYDRAM_", 0), 0u);
    }
    if (k->flag != nullptr) {
      EXPECT_TRUE(names.insert(k->flag).second) << k->flag;
    }
    EXPECT_STRNE(k->doc, "");
    knobs::Value v;
    EXPECT_TRUE(*k->fallback == '\0' || knobs::parse(*k, k->fallback, &v)) << k->fallback;
  }
  int env_rows = 0;
  for (const knobs::Knob* k : knobs::kAll) env_rows += k->env != nullptr;
  EXPECT_EQ(env_rows, 13);
}

// The "Knobs" section of EXPERIMENTS.md holds exactly one generated line per
// row. On failure, paste the expected lines printed below.
TEST(Knobs, ExperimentsMdListsEveryRow) {
  std::ifstream in(std::string(LAZYDRAM_SOURCE_DIR) + "/EXPERIMENTS.md");
  ASSERT_TRUE(in) << "EXPERIMENTS.md not found";
  std::vector<std::string> listed;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Knobs";
    if (in_section && line.rfind("| `", 0) == 0) listed.push_back(line);
    if (in_section && line.rfind("| —", 0) == 0) listed.push_back(line);
  }
  std::vector<std::string> expected;
  for (const knobs::Knob* k : knobs::kAll) expected.push_back(markdown_row(*k));
  std::ostringstream want;
  for (const std::string& line : expected) want << line << "\n";
  EXPECT_EQ(listed, expected) << "expected Knobs rows:\n" << want.str();
}

TEST(Knobs, KindParsersAcceptOnlyTheirValues) {
  struct Case {
    const knobs::Knob* knob;
    const char* text;
    bool ok;
  };
  const Case cases[] = {
      {&knobs::kJobs, "4", true},          {&knobs::kJobs, "0", false},
      {&knobs::kJobs, "1025", false},      {&knobs::kJobs, "4x", false},
      {&knobs::kJobs, " 4", false},        {&knobs::kJobs, "+4", false},
      {&knobs::kJobs, "1/4", false},       {&knobs::kTraceSample, "1/4", true},
      {&knobs::kSeed, "0", true},          {&knobs::kSeed, "9223372036854775807", true},
      {&knobs::kSeed, "18446744073709551616", false},
      {&knobs::kSeed, "abc", false},       {&knobs::kDuration, "10x", false},
      {&knobs::kHeartbeat, "0.05", true},  {&knobs::kHeartbeat, "1e-3", true},
      {&knobs::kHeartbeat, "", false},     {&knobs::kHeartbeat, "-inf", false},
      {&knobs::kFull, "1", true},          {&knobs::kFull, "on", true},
      {&knobs::kFull, "0", true},          {&knobs::kFull, "off", true},
      {&knobs::kFull, "10", false},        {&knobs::kFull, "yes", false},
      {&knobs::kCheck, "strict", true},    {&knobs::kCheck, "Strict", false},
      {&knobs::kCheck, "", false},         {&knobs::kLog, "3", true},
      {&knobs::kScheme, "dyn-combo", true}, {&knobs::kScheme, "dyn", false},
      {&knobs::kJson, "any/path.json", true},
  };
  for (const Case& c : cases) {
    knobs::Value v;
    EXPECT_EQ(knobs::parse(*c.knob, c.text, &v), c.ok)
        << (c.knob->env != nullptr ? c.knob->env : c.knob->flag) << "='" << c.text << "'";
  }
  EXPECT_EQ(knobs::word_index(knobs::kScheme, "baseline"), 0u);
  EXPECT_EQ(knobs::word_index(knobs::kScheme, "dyn-combo"), 6u);
  EXPECT_FALSE(knobs::word_index(knobs::kScheme, "dyn-comb").has_value());
}

// A caller's value wins; the environment only fills a value still at its
// default; a malformed environment value warns and gives the default.
TEST(Knobs, PrecedenceCallerThenEnvironmentThenDefault) {
  ::setenv("LAZYDRAM_TEST_SWITCH", "on", 1);
  EXPECT_FALSE(knobs::on(kTestSwitch, false));  // Explicit off is kept.
  ::setenv("LAZYDRAM_TEST_SWITCH", "off", 1);
  EXPECT_FALSE(knobs::on(kTestSwitch, true));   // Default on: env fills.
  ::unsetenv("LAZYDRAM_TEST_SWITCH");
  EXPECT_TRUE(knobs::on(kTestSwitch, true));

  ::setenv("LAZYDRAM_SELFPROF", "1", 1);
  EXPECT_TRUE(knobs::on(knobs::kSelfProfile, false));
  ::unsetenv("LAZYDRAM_SELFPROF");

  ::setenv("LAZYDRAM_TRACE_FORMAT", "chrome", 1);
  EXPECT_EQ(knobs::text(knobs::kTraceFormat), "chrome");
  EXPECT_EQ(knobs::text(knobs::kTraceFormat, "jsonl"), "jsonl");
  ::unsetenv("LAZYDRAM_TRACE_FORMAT");
  EXPECT_EQ(knobs::text(knobs::kTraceFormat), "jsonl");

  // A word the caller set that is not in the list warns, like the env does.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(knobs::text(knobs::kTraceFormat, "xml"), "jsonl");
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("LAZYDRAM_TRACE_FORMAT='xml'"),
            std::string::npos);

  ::setenv("LAZYDRAM_FLIGHT", "0", 1);
  EXPECT_EQ(knobs::count(knobs::kFlight), 0u);  // 0 is a value, not "unset".
  ::unsetenv("LAZYDRAM_FLIGHT");
  EXPECT_EQ(knobs::count(knobs::kFlight), telemetry::FlightRecorder::kDefaultDepth);
}

TEST(Knobs, BadEnvironmentValueWarnsAndUsesDefault) {
  struct Case {
    const char* env;
    const char* text;
    const knobs::Knob* knob;
  };
  const Case cases[] = {{"LAZYDRAM_FULL", "10", &knobs::kFull},
                        {"LAZYDRAM_TEST_SWITCH", "maybe", &kTestSwitch},
                        {"LAZYDRAM_JOBS", "not-a-number", &knobs::kJobs},
                        {"LAZYDRAM_FLIGHT", "-1", &knobs::kFlight},
                        {"LAZYDRAM_CHECK", "paranoid", &knobs::kCheck}};
  for (const Case& c : cases) {
    ::setenv(c.env, c.text, 1);
    ::testing::internal::CaptureStderr();
    const knobs::Value got = knobs::env(*c.knob);
    const std::string err = ::testing::internal::GetCapturedStderr();
    ::unsetenv(c.env);
    knobs::Value def;
    ASSERT_TRUE(*c.knob->fallback == '\0' || knobs::parse(*c.knob, c.knob->fallback, &def));
    EXPECT_EQ(got.count, def.count) << c.env;
    EXPECT_EQ(got.on, def.on) << c.env;
    EXPECT_EQ(got.text, def.text) << c.env;
    EXPECT_NE(err.find(std::string(c.env) + "='" + c.text + "' not recognized"),
              std::string::npos)
        << err;
  }
}

TEST(Knobs, CommandLineErrorsNameTheArgument) {
  struct Case {
    std::vector<std::string> args;
    const char* error;
  };
  const Case cases[] = {
      {{"--shard", "4"}, "unknown flag '--shard'"},
      {{"--jobs"}, "--jobs needs a value"},
      {{"--json", "--jobs", "2"}, "--json needs a value"},
      {{"--heartbeat", "soon"}, "--heartbeat 'soon' not recognized"},
      {{"--check", "bogus"}, "--check 'bogus' not recognized (want off|log|strict)"},
      {{"--self-profile", "1"}, "unexpected argument '1'"},
      {{"-j", "4"}, "unknown flag '-j'"},
      {{"extra"}, "unexpected argument 'extra'"},
  };
  for (const Case& c : cases) {
    knobs::Cli cli(knobs::bench_rows());
    const std::string error = parse(cli, c.args);
    EXPECT_NE(error.find(c.error), std::string::npos) << c.args[0] << ": " << error;
  }
  // A binary accepts exactly its own rows: bench flags are unknown to a
  // diffcheck-style row set, and the other way round.
  knobs::Cli diff({&knobs::kWorkloads, &knobs::kList});
  EXPECT_NE(parse(diff, {"--jobs", "2"}).find("unknown flag '--jobs'"), std::string::npos);
  knobs::Cli bench(knobs::bench_rows());
  EXPECT_NE(parse(bench, {"--list"}).find("unknown flag '--list'"), std::string::npos);
}

TEST(Knobs, CommandLineValuesBeatEnvironment) {
  ::setenv("LAZYDRAM_HEARTBEAT", "7", 1);
  ::setenv("LAZYDRAM_SELFPROF", "1", 1);
  knobs::Cli cli(knobs::bench_rows({&knobs::kSeed}), "[WORKLOAD]", 1);
  ASSERT_EQ(parse(cli, {"SCP", "--heartbeat", "0.25", "--seed", "0"}), "");
  EXPECT_EQ(cli.get(knobs::kHeartbeat).seconds, 0.25);
  EXPECT_TRUE(cli.get(knobs::kSelfProfile).on);  // Not on the line: env.
  EXPECT_FALSE(cli.has(knobs::kSelfProfile));
  EXPECT_EQ(cli.get(knobs::kSeed).count, 0u);
  EXPECT_EQ(cli.operands(), std::vector<std::string>{"SCP"});
  ::unsetenv("LAZYDRAM_HEARTBEAT");
  ::unsetenv("LAZYDRAM_SELFPROF");
  knobs::Cli none(knobs::bench_rows({&knobs::kSeed}));
  ASSERT_EQ(parse(none, {}), "");
  EXPECT_EQ(none.get(knobs::kSeed).count, 1u);  // The row default.
  EXPECT_EQ(none.get(knobs::kHeartbeat).seconds, 0.0);
}

TEST(Knobs, UsageListsEveryRowAndFailExitsTwo) {
  knobs::Cli cli(knobs::bench_rows({&knobs::kTenants}), "[WORKLOAD]", 1);
  ASSERT_EQ(parse(cli, {}), "");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("usage: prog [options] [WORKLOAD]"), std::string::npos) << usage;
  for (const knobs::Knob* k : knobs::bench_rows({&knobs::kTenants})) {
    EXPECT_NE(usage.find(k->flag), std::string::npos) << k->flag;
    if (k->env != nullptr) {
      EXPECT_NE(usage.find(k->env), std::string::npos) << k->env;
    }
  }
  EXPECT_EXIT(cli.fail("unknown flag '--x'"), ::testing::ExitedWithCode(2),
              "prog: unknown flag '--x'\nusage: prog");
}

}  // namespace
}  // namespace lazydram
