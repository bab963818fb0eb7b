// diffcheck: differential verification of the optimized simulator against
// the golden reference model (see src/check/golden.hpp for the split between
// re-derived and replayed state).
//
// For each (workload, scheme) pair it runs the full simulator with stream
// recording + the runtime protocol checker in log mode, replays every
// channel through the golden model, and diffs the per-request timelines.
// Exit status is non-zero if any pair diverges (or the checker found
// violations), and the first divergence is printed with full context so CI
// can publish it as a failure artifact.
//
// Usage:
//   diffcheck [--workloads A,B,C] [--schemes Baseline,Dyn-DMS,...] [--list]
//   diffcheck --policy frfcfs [--workloads A,B,C]
//
// Defaults: three workloads spanning the paper's behavior groups, all seven
// schemes. `--policy` switches to the registry-policy lane: each workload runs
// under the named scheduler policy (baseline scheme spec) and diffs against
// the golden model. The golden model replays FR-FCFS arbitration, so only
// FR-FCFS-equivalent policies are expected to match — CI uses this lane with
// "frfcfs" to pin the registry construction path itself.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "sim/diff.hpp"
#include "workloads/registry.hpp"

namespace {

using lazydram::core::SchemeKind;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return "";
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<SchemeKind> all = lazydram::core::all_schemes();

  if (has_flag(argc, argv, "--list")) {
    std::printf("workloads:");
    for (const std::string& n : lazydram::workloads::all_workload_names())
      std::printf(" %s", n.c_str());
    std::printf("\nschemes:");
    for (SchemeKind k : all) std::printf(" %s", lazydram::core::scheme_name(k));
    std::printf("\n");
    return 0;
  }

  // Default workloads: one streaming (SCP), one irregular/approximate
  // (inversek2j), one stencil (CONS) — small enough for CI, diverse enough
  // to exercise hits, misses, drops and write-backs.
  std::vector<std::string> workload_names = {"SCP", "inversek2j", "CONS"};
  if (const std::string w = arg_value(argc, argv, "--workloads"); !w.empty())
    workload_names = split_csv(w);

  std::vector<SchemeKind> schemes = all;
  if (const std::string s = arg_value(argc, argv, "--schemes"); !s.empty()) {
    schemes.clear();
    for (const std::string& name : split_csv(s)) {
      bool found = false;
      for (SchemeKind k : all) {
        if (name == lazydram::core::scheme_name(k)) {
          schemes.push_back(k);
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "diffcheck: unknown scheme '%s' (try --list)\n",
                     name.c_str());
        return 2;
      }
    }
  }

  lazydram::sim::DiffHarness harness;
  unsigned failures = 0;

  if (const std::string policy = arg_value(argc, argv, "--policy"); !policy.empty()) {
    for (const std::string& workload : workload_names) {
      const lazydram::sim::DiffResult result = harness.run_policy(workload, policy);
      if (result.ok()) {
        std::printf("PASS  %-12s %-12s %8llu requests match golden timeline\n",
                    result.workload.c_str(), result.scheme.c_str(),
                    static_cast<unsigned long long>(result.requests));
      } else {
        ++failures;
        std::printf("FAIL  %-12s %-12s\n%s", result.workload.c_str(),
                    result.scheme.c_str(),
                    lazydram::sim::DiffHarness::format_divergence(result).c_str());
      }
      std::fflush(stdout);
    }
    if (failures > 0) {
      std::fprintf(stderr, "diffcheck: %u (workload, policy) pair(s) diverged\n",
                   failures);
      return 1;
    }
    std::printf("diffcheck: all %zu workload(s) under policy '%s' match the "
                "golden timeline\n",
                workload_names.size(), policy.c_str());
    return 0;
  }

  for (const std::string& workload : workload_names) {
    for (SchemeKind kind : schemes) {
      const lazydram::core::SchemeSpec spec =
          lazydram::core::make_scheme_spec(kind, lazydram::GpuConfig{}.scheme);
      const lazydram::sim::DiffResult result = harness.run(workload, spec);
      if (result.ok()) {
        std::printf("PASS  %-12s %-12s %8llu requests match golden timeline\n",
                    result.workload.c_str(), result.scheme.c_str(),
                    static_cast<unsigned long long>(result.requests));
      } else {
        ++failures;
        std::printf("FAIL  %-12s %-12s\n%s", result.workload.c_str(),
                    result.scheme.c_str(),
                    lazydram::sim::DiffHarness::format_divergence(result).c_str());
      }
      std::fflush(stdout);
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "diffcheck: %u (workload, scheme) pair(s) diverged\n",
                 failures);
    return 1;
  }
  std::printf("diffcheck: all %zu workload(s) x %zu scheme(s) match the golden "
              "timeline\n",
              workload_names.size(), schemes.size());
  return 0;
}
