// Fig. 6: cumulative distribution of row activations over read requests
// sorted by their activation's RBL (read-only rows). The paper highlights:
// GEMM — ~10% of requests (RBL 1-2) cause ~65% of activations; 3MM — ~0.2%
// of requests (RBL 1-2) cause ~45% of activations.
#include <cstdio>

#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 6 — cumulative activation share vs request share, sorted by RBL",
      "GEMM: ~10% of requests (RBL1-2) -> ~65% of acts; 3MM: ~0.2% -> ~45%");

  sim::ExperimentRunner runner(cli);
  for (const std::string& app : {std::string("GEMM"), std::string("3MM")})
    runner.prefetch_baseline(app);
  runner.flush();

  for (const std::string& app : {std::string("GEMM"), std::string("3MM")}) {
    const sim::RunMetrics& m = runner.baseline(app);
    const Histogram& h = m.rbl_readonly_hist;

    // Requests in an RBL(k) read-only row = k * activations at k. Sort by k
    // ascending (lowest-RBL requests first) and accumulate both shares.
    double total_reqs = 0.0, total_acts = 0.0;
    for (std::uint64_t k = 1; k <= h.max_key(); ++k) {
      total_reqs += static_cast<double>(k * h.at(k));
      total_acts += static_cast<double>(h.at(k));
    }
    std::printf("\n%s (read-only rows: %.0f activations, %.0f requests)\n", app.c_str(),
                total_acts, total_reqs);
    std::printf("  %-10s %-14s %-14s\n", "RBL<=k", "request share", "activation share");
    double req_cum = 0.0, act_cum = 0.0;
    for (const std::uint64_t k : {1ull, 2ull, 4ull, 8ull, 16ull, 32ull, 64ull}) {
      req_cum = 0.0;
      act_cum = 0.0;
      for (std::uint64_t j = 1; j <= k && j <= h.max_key(); ++j) {
        req_cum += static_cast<double>(j * h.at(j));
        act_cum += static_cast<double>(h.at(j));
      }
      std::printf("  %-10llu %-14.3f %-14.3f\n", static_cast<unsigned long long>(k),
                  total_reqs > 0 ? req_cum / total_reqs : 0.0,
                  total_acts > 0 ? act_cum / total_acts : 0.0);
    }
  }
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
