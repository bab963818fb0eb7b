// Section V, "Effect on Memory Energy and Peak Bandwidth": projecting the
// Dyn-DMS+Dyn-AMS row-energy reduction onto whole-memory-system energy for
// HBM1 (row energy ~50% of memory energy) and HBM2 (~25%), plus the
// absolute power / bandwidth headroom numbers for a 60W memory budget.
#include <cstdio>

#include "dram/power.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "HBM projection — memory-system energy savings of Dyn-DMS+Dyn-AMS",
      "~22% memory energy on HBM1 (50% row share), ~11% on HBM2 (25%); "
      "up to 8W saved or ~90 GB/s extra peak bandwidth at 60W");

  sim::ExperimentRunner runner(cli);
  for (const std::string& app : workloads::fig12_workload_names()) {
    runner.prefetch_baseline(app);
    runner.prefetch_scheme(app, core::SchemeKind::kDynCombo, /*compute_error=*/false);
  }
  runner.flush();

  std::vector<double> reductions, total_reductions, gddr5_shares;
  std::vector<double> hbm1_shares, hbm2_shares;
  for (const std::string& app : workloads::fig12_workload_names()) {
    const sim::RunMetrics& base = runner.baseline(app);
    const sim::RunMetrics& combo =
        runner.run_scheme(app, core::SchemeKind::kDynCombo, /*compute_error=*/false);
    reductions.push_back(1.0 - combo.row_energy_nj / base.row_energy_nj);
    total_reductions.push_back(1.0 - combo.total_energy_nj / base.total_energy_nj);
    gddr5_shares.push_back(base.measured_row_share);

    // Derived HBM row shares: rescale the *measured* GDDR5 baseline
    // breakdown per component (row energy per ACT drops only where the
    // activation granularity does — HBM2 pseudo-channel; access shrinks
    // most with the short low-voltage I/O; background and refresh shrink
    // moderately) and recompute row / total for this workload's command mix.
    const EnergyParams ep;
    const auto derived_share = [&](double row_scale, double access_scale, double bg_scale) {
      const double row = base.row_energy_nj * row_scale;
      const double total = row + base.access_energy_nj * access_scale +
                           (base.background_energy_nj + base.refresh_energy_nj) * bg_scale;
      return total > 0.0 ? row / total : 0.0;
    };
    hbm1_shares.push_back(
        derived_share(ep.hbm1_row_scale, ep.hbm1_access_scale, ep.hbm1_background_scale));
    hbm2_shares.push_back(
        derived_share(ep.hbm2_row_scale, ep.hbm2_access_scale, ep.hbm2_background_scale));
  }
  const double row_reduction = sim::mean(reductions);
  const EnergyParams energy;

  const double hbm1 = project_memory_energy_reduction(row_reduction, energy.hbm1_row_share);
  const double hbm2 = project_memory_energy_reduction(row_reduction, energy.hbm2_row_share);

  std::printf("Average row-energy reduction (groups 1-3): %.1f%%\n", row_reduction * 100);
  std::printf("HBM1 (row share %.0f%%): %.1f%% memory-system energy reduction\n",
              energy.hbm1_row_share * 100, hbm1 * 100);
  std::printf("HBM2 (row share %.0f%%): %.1f%% memory-system energy reduction\n",
              energy.hbm2_row_share * 100, hbm2 * 100);

  // Measured-breakdown cross-check. The derived shares replace the analytic
  // constants with shares computed from the measured GDDR5 breakdown; the
  // consistency delta says how far the paper's assumed constants sit from
  // this model's measured arithmetic.
  const double gddr5_share = sim::mean(gddr5_shares);
  const double hbm1_share = sim::mean(hbm1_shares);
  const double hbm2_share = sim::mean(hbm2_shares);
  std::printf("\nMeasured GDDR5 breakdown: row share %.3f; whole-DRAM reduction "
              "(all components, measured) %.1f%%\n",
              gddr5_share, sim::mean(total_reductions) * 100);
  std::printf("HBM1 derived row share %.3f (analytic %.2f, delta %+.3f): "
              "%.1f%% projected reduction\n",
              hbm1_share, energy.hbm1_row_share, hbm1_share - energy.hbm1_row_share,
              project_memory_energy_reduction(row_reduction, hbm1_share) * 100);
  std::printf("HBM2 derived row share %.3f (analytic %.2f, delta %+.3f): "
              "%.1f%% projected reduction\n",
              hbm2_share, energy.hbm2_row_share, hbm2_share - energy.hbm2_row_share,
              project_memory_energy_reduction(row_reduction, hbm2_share) * 100);

  // 60W memory budget at peak bandwidth (Section V's absolute numbers).
  constexpr double kMemBudgetW = 60.0;
  constexpr double kHbm2PeakGBs = 900.0 / 60.0 * 60.0;  // ~900 GB/s class part.
  std::printf("At a %.0fW memory budget (HBM2): %.1fW power headroom, or ~%.0f GB/s "
              "additional peak bandwidth at iso-power\n",
              kMemBudgetW, hbm2 * kMemBudgetW, hbm2 * kHbm2PeakGBs);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
