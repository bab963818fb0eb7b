// Fig. 14: visual quality of the approximate output for `laplacian` under
// Dyn-DMS+Dyn-AMS. The paper shows the exact and ~17%-error images side by
// side; this bench reports the error metrics and per-band pixel deltas, and
// the `image_approx` example writes the PGM images themselves.
#include <cstdio>

#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 14 — laplacian output quality under Dyn-DMS+Dyn-AMS",
      "at ~17% application error the sharpened image shows only limited "
      "quality degradation (see examples/image_approx for the PGMs)");

  sim::ExperimentRunner runner(cli);
  runner.prefetch_baseline("laplacian");
  runner.prefetch_scheme("laplacian", core::SchemeKind::kDynCombo, /*compute_error=*/true);
  runner.flush();

  const sim::RunMetrics& base = runner.baseline("laplacian");
  const sim::RunMetrics& combo =
      runner.run_scheme("laplacian", core::SchemeKind::kDynCombo, /*compute_error=*/true);

  std::printf("scheme              acts(norm)  rowE(norm)  IPC(norm)  coverage  error\n");
  std::printf("Baseline            1.000       1.000       1.000      0.0%%      0.00%%\n");
  std::printf("Dyn-DMS+Dyn-AMS     %.3f       %.3f       %.3f      %.1f%%      %.2f%%\n",
              static_cast<double>(combo.activations) / static_cast<double>(base.activations),
              combo.row_energy_nj / base.row_energy_nj, combo.ipc / base.ipc,
              combo.coverage * 100, combo.app_error * 100);
  std::printf("\nRun `examples/image_approx` to write laplacian_exact.pgm / "
              "laplacian_approx.pgm for visual comparison.\n");
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
