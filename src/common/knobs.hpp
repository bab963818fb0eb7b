// One table of every runtime knob (the LAZYDRAM_* environment variables and
// the command-line flags), one parser per kind of value, and one precedence
// rule: the caller's value, then the environment (read afresh on every call),
// then the row's default. DESIGN.md §15; EXPERIMENTS.md "Knobs" lists the rows.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lazydram::knobs {

enum class Kind {
  kCount,    ///< Whole decimal number in [lo, hi].
  kSeconds,  ///< Finite decimal number of seconds in (0, hi].
  kSwitch,   ///< 1|0|on|off in the environment; a bare flag on the command line.
  kWord,     ///< One word of `words`.
  kText,     ///< Free text (a path, spec or list), checked by its consumer.
};

struct Knob {
  const char* env = nullptr;   ///< LAZYDRAM_* variable, or nullptr.
  const char* flag = nullptr;  ///< Command-line flag, or nullptr.
  Kind kind = Kind::kText;
  const char* value = "";      ///< Value placeholder in usage text ("N", "PATH").
  std::uint64_t lo = 0, hi = 0;  ///< kCount range; kSeconds upper bound.
  bool one_in_n = false;         ///< kCount: "1/N" is accepted as N too.
  const char* words = "";        ///< kWord: accepted words, '|'-separated.
  const char* fallback = "";     ///< Default, spelled as a value; "" = none.
  const char* doc = "";
};

inline constexpr std::uint64_t kBig = ~std::uint64_t{0} >> 1;  ///< Effectively unbounded.

// Shared by simulate_full, the sweep engine and every bench driver.
inline constexpr Knob kJobs{.env = "LAZYDRAM_JOBS", .flag = "--jobs", .kind = Kind::kCount,
    .value = "N", .lo = 1, .hi = 1024, .doc = "simulations run at once (none: all cores)"};
inline constexpr Knob kJson{.env = "LAZYDRAM_JSON", .flag = "--json", .value = "PATH",
    .doc = "JSON report of a bench's sweep and of each run (sweeps add the run label)"};
inline constexpr Knob kCheck{.env = "LAZYDRAM_CHECK", .flag = "--check",
    .kind = Kind::kWord, .value = "MODE", .words = "off|log|strict", .fallback = "off",
    .doc = "DRAM protocol checker"};
inline constexpr Knob kSelfProfile{.env = "LAZYDRAM_SELFPROF", .flag = "--self-profile",
    .kind = Kind::kSwitch, .fallback = "off", .doc = "wall-clock self-profiler"};
inline constexpr Knob kHeartbeat{.env = "LAZYDRAM_HEARTBEAT", .flag = "--heartbeat",
    .kind = Kind::kSeconds, .value = "SECONDS", .hi = 31'536'000,
    .doc = "period of run-health lines on stderr, per run and per sweep (none: off)"};
// Environment only.
inline constexpr Knob kPolicy{.env = "LAZYDRAM_POLICY", .value = "SPEC",
    .doc = "scheduler policy name[:key=value,...] for runs whose config names none"};
inline constexpr Knob kTrace{.env = "LAZYDRAM_TRACE", .value = "PATH",
    .doc = "event and request-lifecycle trace file (sweeps add the run label)"};
inline constexpr Knob kTraceFormat{.env = "LAZYDRAM_TRACE_FORMAT", .kind = Kind::kWord,
    .value = "FORMAT", .words = "jsonl|chrome", .fallback = "jsonl", .doc = "trace format"};
inline constexpr Knob kTraceSample{.env = "LAZYDRAM_TRACE_SAMPLE", .kind = Kind::kCount,
    .value = "N", .lo = 1, .hi = kBig, .one_in_n = true, .fallback = "1",
    .doc = "trace the lifecycle of one read request in N"};
inline constexpr Knob kLog{.env = "LAZYDRAM_LOG", .kind = Kind::kWord, .value = "LEVEL",
    .words = "silent|warn|info|debug|0|1|2|3", .fallback = "warn", .doc = "log level"};
inline constexpr Knob kFlight{.env = "LAZYDRAM_FLIGHT", .kind = Kind::kCount,
    .value = "N", .hi = kBig, .fallback = "64", .doc = "flight-recorder depth; 0 = off"};
inline constexpr Knob kFlightDump{.env = "LAZYDRAM_FLIGHT_DUMP", .value = "PATH",
    .fallback = "lazydram_flight.json", .doc = "where a crash dumps the flight recorder"};
inline constexpr Knob kFull{.env = "LAZYDRAM_FULL", .kind = Kind::kSwitch,
    .fallback = "off", .doc = "sweep benches run all 20 workloads, not the 8-app subset"};
// Flags of one binary.
inline constexpr Knob kPolicies{.flag = "--policies", .value = "LIST",
    .fallback = "frfcfs,fcfs,bliss,batch-rr,autotune", .doc = "bench_policy_arena: rivals"};
inline constexpr Knob kTenants{.flag = "--tenants", .value = "SPECS",
    .fallback = "SCP:warps=480,cap=0.05;CONS:warps=480,think=2000;MVT:warps=480,approx=0",
    .doc = "bench_multitenant: ';'-separated tenant specs (src/gpu/tenant.hpp)"};
inline constexpr Knob kScheme{.flag = "--scheme", .kind = Kind::kWord, .value = "NAME",
    .words = "baseline|static-dms|dyn-dms|static-ams|dyn-ams|static-combo|dyn-combo",
    .fallback = "dyn-combo", .doc = "bench_multitenant: scheme of the shared run"};
inline constexpr Knob kSeed{.flag = "--seed", .kind = Kind::kCount, .value = "N",
    .hi = kBig, .fallback = "1", .doc = "bench_multitenant: seed of the tenants' arrivals"};
inline constexpr Knob kDuration{.flag = "--duration", .kind = Kind::kCount,
    .value = "CYCLES", .lo = 1, .hi = kBig, .doc = "bench_multitenant: run cycle cap"};
inline constexpr Knob kWorkloads{.flag = "--workloads", .value = "LIST",
    .fallback = "SCP,inversek2j,CONS", .doc = "diffcheck: workloads to diff"};
inline constexpr Knob kSchemes{.flag = "--schemes", .value = "LIST",
    .doc = "diffcheck: schemes to diff (none: all seven)"};
inline constexpr Knob kDiffPolicy{.flag = "--policy", .value = "SPEC",
    .doc = "diffcheck: diff each workload under this registry policy instead"};
inline constexpr Knob kList{.flag = "--list", .kind = Kind::kSwitch, .fallback = "off",
    .doc = "diffcheck: print the workload and scheme names and exit"};
inline constexpr Knob kPerf{.flag = "--perf", .kind = Kind::kSwitch, .fallback = "off",
    .doc = "bench_micro: run the self-observability and tracing overhead A/B"};

/// Every row, in the order EXPERIMENTS.md lists them.
inline constexpr const Knob* kAll[] = {
    &kJobs,     &kJson,       &kCheck,       &kSelfProfile, &kHeartbeat, &kPolicy,
    &kTrace,    &kTraceFormat, &kTraceSample, &kLog,        &kFlight,    &kFlightDump,
    &kFull,     &kPolicies,   &kTenants,     &kScheme,      &kSeed,      &kDuration,
    &kWorkloads, &kSchemes,   &kDiffPolicy,  &kList,        &kPerf};

/// A parsed value; the member matching the row's kind is meaningful.
struct Value {
  std::uint64_t count = 0;
  double seconds = 0.0;
  bool on = false;
  std::string text = {};  ///< kWord and kText.
};

/// The kind's parser: true, with `*out` set, when `text` is a valid value of `k`.
bool parse(const Knob& k, const std::string& text, Value* out);
/// What `k` accepts, for messages ("a whole number in [1, 1024]").
std::string accepted(const Knob& k);
/// Position of `text` in a kWord row's list.
std::optional<std::size_t> word_index(const Knob& k, const std::string& text);
/// The non-empty items of a `sep`-separated list.
std::vector<std::string> split(const std::string& text, char sep = ',');

/// The environment's value of `k`, else its default (a malformed value warns).
Value env(const Knob& k);

// The precedence rule for a caller's value `set`: it wins unless it is the
// unset marker (0, 0.0, "", or the row's default for a switch).
std::uint64_t count(const Knob& k, std::uint64_t set = 0);
double seconds(const Knob& k, double set = 0.0);
bool on(const Knob& k, bool set);
/// A word the caller set that is not in the row's list warns and gives the default.
std::string text(const Knob& k, const std::string& set = {});

/// A command line parsed against the rows one binary accepts. Arguments that
/// start with '-' are flags, the rest operands.
class Cli {
 public:
  explicit Cli(std::vector<const Knob*> rows, std::string operands = "",
               std::size_t max_operands = 0)
      : rows_(std::move(rows)), operand_usage_(std::move(operands)),
        max_operands_(max_operands) {}
  /// False, with `*error` naming the argument, on an unknown flag, a missing
  /// or malformed value, or too many operands.
  bool parse(int argc, char** argv, std::string* error);
  /// Prints "<program>: <message>" and the usage text to stderr; exits 2.
  [[noreturn]] void fail(const std::string& message) const;
  std::string usage() const;

  bool has(const Knob& k) const { return find(k) != nullptr; }  ///< The line set `k`.
  Value get(const Knob& k) const;  ///< The command line's value, else env(k).
  const std::vector<std::string>& operands() const { return operands_; }

 private:
  const Value* find(const Knob& k) const;

  std::vector<const Knob*> rows_;
  std::string operand_usage_;
  std::size_t max_operands_;
  std::string program_ = "lazydram";
  std::vector<std::pair<const Knob*, Value>> values_;
  std::vector<std::string> operands_;
};

/// --jobs, --json, --check, --self-profile and --heartbeat, plus `extra`.
std::vector<const Knob*> bench_rows(std::initializer_list<const Knob*> extra = {});
/// A Cli over `rows` with argv parsed, or Cli::fail() with the parse error.
Cli parse_or_exit(int argc, char** argv, std::vector<const Knob*> rows,
                  std::string operands = "", std::size_t max_operands = 0);
/// A bench driver's command line: parse_or_exit() over bench_rows(extra).
Cli bench_cli(int argc, char** argv, std::initializer_list<const Knob*> extra = {});

}  // namespace lazydram::knobs
