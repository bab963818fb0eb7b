// Ablation: value-predictor design. Sweeps the nearby-set search radius and
// compares the paper's nearest-line predictor against a zero-fill predictor
// — application error is the metric the VP design controls (Section IV-D).
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Ablation — VP unit: search radius and predictor kind vs app error",
      "nearest-line prediction bounds error; radius trades search cost for "
      "donor quality (Section IV-D)");

  sim::ExperimentRunner runner(cli);
  TextTable table({"Workload", "r=0", "r=1", "r=4", "r=8", "zero-fill"});

  const auto radius_config = [&](unsigned radius) {
    sim::RunConfig rc;
    rc.gpu = runner.config();
    rc.gpu.scheme.vp_set_radius = radius;
    rc.spec = core::make_scheme_spec(core::SchemeKind::kStaticAms, rc.gpu.scheme);
    return rc;
  };
  sim::RunConfig zero;
  zero.gpu = runner.config();
  zero.gpu.scheme.vp_zero_fill = true;
  zero.spec = core::make_scheme_spec(core::SchemeKind::kStaticAms, zero.gpu.scheme);

  for (const std::string& app :
       {std::string("SCP"), std::string("LPS"), std::string("MVT"),
        std::string("meanfilter")}) {
    for (const unsigned radius : {0u, 1u, 4u, 8u})
      runner.prefetch_custom(app, radius_config(radius),
                             "ablvp/r" + std::to_string(radius));
    runner.prefetch_custom(app, zero, "ablvp/zero");
  }
  runner.flush();

  for (const std::string& app :
       {std::string("SCP"), std::string("LPS"), std::string("MVT"),
        std::string("meanfilter")}) {
    std::vector<std::string> row = {app};
    for (const unsigned radius : {0u, 1u, 4u, 8u}) {
      const sim::RunMetrics& m = runner.run_custom(app, radius_config(radius),
                                                   "ablvp/r" + std::to_string(radius));
      row.push_back(TextTable::num(m.app_error * 100, 2) + "%");
    }
    const sim::RunMetrics& mz = runner.run_custom(app, zero, "ablvp/zero");
    row.push_back(TextTable::num(mz.app_error * 100, 2) + "%");
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
