// Fig. 13: effect of the pending queue size on activations when the maximum
// delay DMS(2048) is applied — activation counts stabilize from size 128,
// i.e. the baseline queue suffices for DMS.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 13 — activations vs queue size under DMS(2048), norm. to baseline",
      "activation counts stabilize from queue size 128 onward");

  const std::vector<unsigned> sizes = {32, 64, 128, 256};
  sim::ExperimentRunner runner(cli);

  const auto queue_config = [&](unsigned size) {
    sim::RunConfig rc;
    rc.gpu = runner.config();
    rc.gpu.pending_queue_size = size;
    rc.spec = core::make_static_dms_spec(2048, rc.gpu.scheme);
    rc.compute_error = false;
    return rc;
  };
  for (const std::string& app : sim::bench_workloads()) {
    runner.prefetch_baseline(app);
    for (const unsigned s : sizes)
      runner.prefetch_custom(app, queue_config(s), "fig13/q" + std::to_string(s));
  }
  runner.flush();

  std::vector<std::string> header = {"Workload"};
  for (const unsigned s : sizes) header.push_back("q=" + std::to_string(s));
  TextTable table(header);
  std::vector<std::vector<double>> agg(sizes.size());

  for (const std::string& app : sim::bench_workloads()) {
    const sim::RunMetrics& base = runner.baseline(app);
    std::vector<std::string> row = {app};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const sim::RunMetrics& m = runner.run_custom(app, queue_config(sizes[i]),
                                                   "fig13/q" + std::to_string(sizes[i]));
      const double v =
          static_cast<double>(m.activations) / static_cast<double>(base.activations);
      row.push_back(TextTable::num(v, 3));
      agg[i].push_back(v);
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> gm = {"GEOMEAN"};
  for (auto& v : agg) gm.push_back(TextTable::num(sim::geomean(v), 3));
  table.add_row(std::move(gm));
  table.print(std::cout);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
