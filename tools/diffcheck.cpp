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
// Flags (knobs::kWorkloads, kSchemes, kDiffPolicy, kList): by default three
// workloads spanning the paper's behavior groups, all seven schemes.
// `--policy` switches to the registry-policy lane: each workload runs under
// the named scheduler policy (baseline scheme spec) and diffs against the
// golden model. The golden model replays FR-FCFS arbitration, so only
// FR-FCFS-equivalent policies are expected to match — CI uses this lane with
// "frfcfs" to pin the registry construction path itself.
#include <cstdio>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "core/scheme.hpp"
#include "sim/diff.hpp"
#include "workloads/registry.hpp"

using lazydram::core::SchemeKind;

int main(int argc, char** argv) {
  namespace knobs = lazydram::knobs;
  const knobs::Cli cli = knobs::parse_or_exit(
      argc, argv, {&knobs::kWorkloads, &knobs::kSchemes, &knobs::kDiffPolicy, &knobs::kList});
  const std::vector<SchemeKind> all = lazydram::core::all_schemes();

  if (cli.get(knobs::kList).on) {
    std::printf("workloads:");
    for (const std::string& n : lazydram::workloads::all_workload_names())
      std::printf(" %s", n.c_str());
    std::printf("\nschemes:");
    for (SchemeKind k : all) std::printf(" %s", lazydram::core::scheme_name(k));
    std::printf("\n");
    return 0;
  }

  // Default workloads (the kWorkloads row): one streaming (SCP), one
  // irregular/approximate (inversek2j), one stencil (CONS) — small enough for
  // CI, diverse enough to exercise hits, misses, drops and write-backs.
  const std::vector<std::string> workload_names = knobs::split(cli.get(knobs::kWorkloads).text);
  for (const std::string& name : workload_names)
    if (lazydram::workloads::find_workload(name) == nullptr)
      cli.fail(lazydram::workloads::unknown_workload_message(name));

  std::vector<SchemeKind> schemes = all;
  if (const std::string s = cli.get(knobs::kSchemes).text; !s.empty()) {
    schemes.clear();
    for (const std::string& name : knobs::split(s)) {
      bool found = false;
      for (SchemeKind k : all) {
        if (name == lazydram::core::scheme_name(k)) {
          schemes.push_back(k);
          found = true;
          break;
        }
      }
      if (!found) cli.fail("unknown scheme '" + name + "' (try --list)");
    }
  }

  lazydram::sim::DiffHarness harness;
  unsigned failures = 0;

  if (const std::string policy = cli.get(knobs::kDiffPolicy).text; !policy.empty()) {
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
