#include "sim/report.hpp"

#include <cmath>
#include <cstdio>

#include "common/knobs.hpp"
#include "common/log.hpp"
#include "workloads/registry.hpp"

namespace lazydram::sim {

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 1.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double value, double base) { return base == 0.0 ? 0.0 : value / base; }

void print_bench_header(const std::string& experiment, const std::string& paper_result) {
  log_level();  // Resolve LAZYDRAM_LOG up front so a typo in it warns even
                // if the run never logs.
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper reports: %s\n", paper_result.c_str());
  std::printf("==============================================================\n");
}

std::vector<std::string> bench_workloads() {
  if (knobs::env(knobs::kFull).on) return workloads::all_workload_names();
  // Representative subset: every group, every feature level represented.
  return {"SCP", "LPS", "GEMM", "MVT", "RAY", "FWT", "3MM", "blackscholes"};
}

}  // namespace lazydram::sim
