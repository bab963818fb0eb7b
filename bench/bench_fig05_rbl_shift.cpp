// Fig. 5: effect of DMS on the distribution of row activations over their
// achieved RBL, for two applications. As delay grows, the RBL(1) share of
// activations shrinks and higher-RBL shares grow.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 5 — activation proportions per RBL bucket vs DMS delay",
      "the RBL(1) activation share shrinks with delay; higher-RBL shares grow");

  const std::vector<Cycle> delays = {0, 64, 128, 256, 512, 1024, 2048};
  sim::ExperimentRunner runner(cli);

  for (const std::string& app : {std::string("SCP"), std::string("FWT")}) {
    for (const Cycle d : delays) {
      if (d == 0)
        runner.prefetch_baseline(app);
      else
        runner.prefetch(app, core::make_static_dms_spec(d, runner.config().scheme), false);
    }
  }
  runner.flush();

  for (const std::string& app : {std::string("SCP"), std::string("FWT")}) {
    TextTable table({"Delay", "RBL(1)", "RBL(2)", "RBL(3-4)", "RBL(5-8)", "RBL(>8)"});
    for (const Cycle d : delays) {
      const sim::RunMetrics& m =
          d == 0 ? runner.baseline(app)
                 : runner.run(app, core::make_static_dms_spec(d, runner.config().scheme),
                              false);
      const double total = static_cast<double>(m.rbl_hist.total());
      const auto share = [&](std::uint64_t lo, std::uint64_t hi) {
        return TextTable::num(static_cast<double>(m.rbl_hist.in_range(lo, hi)) / total, 3);
      };
      const double high = static_cast<double>(m.rbl_hist.in_range(9, m.rbl_hist.max_key()) +
                                              m.rbl_hist.overflow()) /
                          total;
      table.add_row({d == 0 ? "base" : std::to_string(d), share(1, 1), share(2, 2),
                     share(3, 4), share(5, 8), TextTable::num(high, 3)});
    }
    std::cout << "\n" << app << ":\n";
    table.print(std::cout);
  }
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
