// Fig. 12: the paper's headline result. All seven schemes over the
// medium/high error-tolerance applications (groups 1-3):
//   (a) normalized row energy  — DMS ~8-12%, AMS ~33%, Dyn combo ~44% savings
//   (b) normalized IPC         — every scheme within 5% of baseline
//   (c) application error      — ~7% average at 10% coverage
//   (d) prediction coverage    — near 10% for groups 1-2, lower for group 3
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 12 — row energy / IPC / app error / coverage across schemes",
      "row energy: Static-DMS -8%, Dyn-DMS -12%, Static-AMS -33%, "
      "Dyn-DMS+AMS -44% (groups 1-3); IPC within 5%; avg error ~7%");

  sim::ExperimentRunner runner(cli);
  const std::vector<core::SchemeKind> schemes = {
      core::SchemeKind::kStaticDms,   core::SchemeKind::kDynDms,
      core::SchemeKind::kStaticAms,   core::SchemeKind::kDynAms,
      core::SchemeKind::kStaticCombo, core::SchemeKind::kDynCombo};

  const std::vector<std::string> apps = workloads::fig12_workload_names();

  for (const std::string& app : apps) {
    runner.prefetch_baseline(app);
    for (const core::SchemeKind k : schemes) runner.prefetch_scheme(app, k);
  }
  runner.flush();

  enum class View { kRowEnergy, kIpc, kError, kCoverage };
  const struct {
    View view;
    const char* title;
  } kViews[] = {{View::kRowEnergy, "(a) Normalized row energy"},
                {View::kIpc, "(b) Normalized IPC"},
                {View::kError, "(c) Application error"},
                {View::kCoverage, "(d) Prediction coverage"}};

  for (const auto& [view, title] : kViews) {
    std::vector<std::string> header = {"Workload", "Grp"};
    for (const core::SchemeKind k : schemes) header.emplace_back(core::scheme_name(k));
    TextTable table(header);
    std::vector<std::vector<double>> agg(schemes.size());

    for (const std::string& app : apps) {
      const sim::RunMetrics& base = runner.baseline(app);
      const auto wl = workloads::make_workload(app);
      std::vector<std::string> row = {app, std::to_string(wl->group())};
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        const sim::RunMetrics& m = runner.run_scheme(app, schemes[i]);
        double v = 0.0;
        switch (view) {
          case View::kRowEnergy: v = m.row_energy_nj / base.row_energy_nj; break;
          case View::kIpc: v = m.ipc / base.ipc; break;
          case View::kError: v = m.app_error; break;
          case View::kCoverage: v = m.coverage; break;
        }
        row.push_back(TextTable::num(v, 3));
        agg[i].push_back(v);
      }
      table.add_row(std::move(row));
    }

    std::vector<std::string> avg = {"MEAN", "-"};
    for (auto& v : agg)
      avg.push_back(TextTable::num(
          view == View::kRowEnergy || view == View::kIpc ? sim::geomean(v) : sim::mean(v),
          3));
    table.add_row(std::move(avg));

    std::cout << "\n" << title << "\n";
    table.print(std::cout);
  }

  // (e) Measured energy accounting. View (a) normalizes the row component
  // alone; these columns come from the state-based accountant's measured
  // breakdown: whole-DRAM savings as measured (background/refresh included —
  // a scheme that stretches runtime pays standby energy back), the measured
  // row-energy share, and the share x row-savings projection the paper's
  // HBM arithmetic would predict from the measured GDDR5 share.
  {
    std::vector<double> base_shares;
    for (const std::string& app : apps)
      base_shares.push_back(runner.baseline(app).measured_row_share);
    const double base_share = sim::mean(base_shares);

    TextTable table({"Scheme", "RowSaved", "TotalSaved", "RowShare", "ShareXRow"});
    for (const core::SchemeKind k : schemes) {
      std::vector<double> row_ratio, total_ratio, shares;
      for (const std::string& app : apps) {
        const sim::RunMetrics& base = runner.baseline(app);
        const sim::RunMetrics& m = runner.run_scheme(app, k);
        row_ratio.push_back(m.row_energy_nj / base.row_energy_nj);
        total_ratio.push_back(m.total_energy_nj / base.total_energy_nj);
        shares.push_back(m.measured_row_share);
      }
      const double row_save = 1.0 - sim::geomean(row_ratio);
      table.add_row({core::scheme_name(k), TextTable::num(row_save, 3),
                     TextTable::num(1.0 - sim::geomean(total_ratio), 3),
                     TextTable::num(sim::mean(shares), 3),
                     TextTable::num(base_share * row_save, 3)});
    }
    std::cout << "\n(e) Measured energy savings (state-based accounting; baseline row"
                 " share " << TextTable::num(base_share, 3) << ")\n";
    table.print(std::cout);
  }
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
