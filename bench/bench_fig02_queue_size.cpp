// Fig. 2: effect of the FR-FCFS pending queue size on the number of row
// activations (baseline scheduling, no DMS/AMS). The paper normalizes to
// queue size 128 and observes that the benefit saturates at 128.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 2 — activations vs pending queue size (normalized to 128)",
      "activations fall as the queue grows and saturate around size 128");

  const std::vector<unsigned> sizes = {16, 32, 64, 128, 256};
  sim::ExperimentRunner runner(cli);

  const auto queue_config = [&](unsigned size) {
    sim::RunConfig rc;
    rc.gpu = runner.config();
    rc.gpu.pending_queue_size = size;
    rc.spec = core::make_scheme_spec(core::SchemeKind::kBaseline, rc.gpu.scheme);
    rc.compute_error = false;
    return rc;
  };
  for (const std::string& app : sim::bench_workloads())
    for (const unsigned s : sizes)
      runner.prefetch_custom(app, queue_config(s), "fig2/q" + std::to_string(s));
  runner.flush();

  std::vector<std::string> header = {"Workload"};
  for (const unsigned s : sizes) header.push_back("q=" + std::to_string(s));
  TextTable table(header);

  std::vector<std::vector<double>> per_size(sizes.size());
  for (const std::string& app : sim::bench_workloads()) {
    // Reference: queue size 128 (the baseline configuration).
    std::vector<double> acts(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const sim::RunMetrics& m = runner.run_custom(app, queue_config(sizes[i]),
                                                   "fig2/q" + std::to_string(sizes[i]));
      acts[i] = static_cast<double>(m.activations);
    }
    const double ref = acts[3];  // size 128.
    std::vector<std::string> row = {app};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      row.push_back(TextTable::num(acts[i] / ref, 3));
      per_size[i].push_back(acts[i] / ref);
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> gm = {"GEOMEAN"};
  for (auto& v : per_size) gm.push_back(TextTable::num(sim::geomean(v), 3));
  table.add_row(std::move(gm));
  table.print(std::cout);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
