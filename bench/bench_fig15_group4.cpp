// Fig. 15: delay-only mode for the low-error-tolerance applications
// (Group 4). AMS must not be applied, but Static-/Dyn-DMS still reduce row
// energy with <5% IPC loss; Dyn-DMS trades a little more IPC for more
// energy.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 15 — Group-4 (low error tolerance) apps, delay-only schemes",
      "both DMS schemes cut row energy at <5% IPC loss; Dyn-DMS cuts more");

  sim::ExperimentRunner runner(cli);
  for (const std::string& app : workloads::group4_workload_names()) {
    runner.prefetch_baseline(app);
    runner.prefetch_scheme(app, core::SchemeKind::kStaticDms, /*compute_error=*/false);
    runner.prefetch_scheme(app, core::SchemeKind::kDynDms, /*compute_error=*/false);
  }
  runner.flush();

  TextTable table({"Workload", "S-DMS rowE", "Dyn-DMS rowE", "S-DMS IPC", "Dyn-DMS IPC"});
  std::vector<double> se, de, si, di;

  for (const std::string& app : workloads::group4_workload_names()) {
    const sim::RunMetrics& base = runner.baseline(app);
    const sim::RunMetrics& s =
        runner.run_scheme(app, core::SchemeKind::kStaticDms, /*compute_error=*/false);
    const sim::RunMetrics& d =
        runner.run_scheme(app, core::SchemeKind::kDynDms, /*compute_error=*/false);
    const double sev = s.row_energy_nj / base.row_energy_nj;
    const double dev = d.row_energy_nj / base.row_energy_nj;
    const double siv = s.ipc / base.ipc;
    const double div = d.ipc / base.ipc;
    se.push_back(sev);
    de.push_back(dev);
    si.push_back(siv);
    di.push_back(div);
    table.add_row({app, TextTable::num(sev, 3), TextTable::num(dev, 3),
                   TextTable::num(siv, 3), TextTable::num(div, 3)});
  }
  table.add_row({"GEOMEAN", TextTable::num(sim::geomean(se), 3),
                 TextTable::num(sim::geomean(de), 3), TextTable::num(sim::geomean(si), 3),
                 TextTable::num(sim::geomean(di), 3)});
  table.print(std::cout);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
