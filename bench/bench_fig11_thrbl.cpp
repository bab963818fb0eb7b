// Fig. 11: effect of reducing Th_RBL for SCP. (a) activations fall as
// Th_RBL drops from 8 toward 1 (the fixed 10% coverage is spent on rows
// with genuinely low RBL); (b) the request-share CDF shows >10% of SCP's
// requests sit in RBL(1) rows, so Th_RBL = 1 suffices to fill the coverage.
#include <cstdio>

#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 11 — SCP: activations & coverage vs Th_RBL; request-share CDF",
      "(a) lowering Th_RBL from 8 to 1 further cuts activations at the same "
      "10% coverage; (b) >10% of requests sit in RBL(1) rows");

  sim::ExperimentRunner runner(cli);
  const std::string app = "SCP";
  runner.prefetch_baseline(app);
  for (unsigned th = 8; th >= 1; --th)
    runner.prefetch(app, core::make_static_ams_spec(th, runner.config().scheme), false);
  runner.flush();

  const sim::RunMetrics& base = runner.baseline(app);

  std::printf("\n(a) AMS(Th_RBL) sweep\n");
  std::printf("%-8s %-12s %-10s %-8s\n", "Th_RBL", "Norm. acts", "Coverage", "IPC");
  for (unsigned th = 8; th >= 1; --th) {
    const sim::RunMetrics& m =
        runner.run(app, core::make_static_ams_spec(th, runner.config().scheme), false);
    std::printf("%-8u %-12.3f %-10.3f %-8.3f\n", th,
                static_cast<double>(m.activations) / static_cast<double>(base.activations),
                m.coverage, m.ipc / base.ipc);
  }

  std::printf("\n(b) request share by activation RBL (baseline, 10%% line)\n");
  const Histogram& h = base.rbl_hist;
  const double total_reqs = static_cast<double>(base.dram_reads + base.dram_writes);
  double cum = 0.0;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    cum += static_cast<double>(k * h.at(k));
    std::printf("  RBL<=%llu: %.3f of all requests%s\n",
                static_cast<unsigned long long>(k), cum / total_reqs,
                cum / total_reqs >= 0.10 && (cum - static_cast<double>(k * h.at(k))) /
                                                    total_reqs <
                                                0.10
                    ? "   <-- crosses the 10% coverage line"
                    : "");
  }
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
