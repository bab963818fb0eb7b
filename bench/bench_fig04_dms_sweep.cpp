// Fig. 4: effect of delayed memory scheduling on (a) the number of row
// activations and (b) IPC, for DMS(64..2048), normalized to baseline.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 4 — DMS(X) sweep: normalized activations (a) and IPC (b)",
      "(a) activations drop with delay, avg reduction up to ~31% at 2048; "
      "(b) many apps keep >=95% IPC at moderate delays, dropping at large X");

  const std::vector<Cycle> delays = {64, 128, 256, 512, 1024, 2048};
  sim::ExperimentRunner runner(cli);

  for (const std::string& app : sim::bench_workloads()) {
    runner.prefetch_baseline(app);
    for (const Cycle d : delays)
      runner.prefetch(app, core::make_static_dms_spec(d, runner.config().scheme), false);
  }
  runner.flush();

  for (const bool ipc_view : {false, true}) {
    std::vector<std::string> header = {"Workload"};
    for (const Cycle d : delays) header.push_back("DMS(" + std::to_string(d) + ")");
    TextTable table(header);
    std::vector<std::vector<double>> agg(delays.size());

    for (const std::string& app : sim::bench_workloads()) {
      const sim::RunMetrics& base = runner.baseline(app);
      std::vector<std::string> row = {app};
      for (std::size_t i = 0; i < delays.size(); ++i) {
        const sim::RunMetrics& m = runner.run(
            app, core::make_static_dms_spec(delays[i], runner.config().scheme), false);
        const double v = ipc_view
                             ? m.ipc / base.ipc
                             : static_cast<double>(m.activations) /
                                   static_cast<double>(base.activations);
        row.push_back(TextTable::num(v, 3));
        agg[i].push_back(v);
      }
      table.add_row(std::move(row));
    }
    std::vector<std::string> gm = {"GEOMEAN"};
    for (auto& v : agg) gm.push_back(TextTable::num(sim::geomean(v), 3));
    table.add_row(std::move(gm));

    std::cout << (ipc_view ? "\n(b) Normalized IPC\n" : "\n(a) Normalized activations\n");
    table.print(std::cout);
  }
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
