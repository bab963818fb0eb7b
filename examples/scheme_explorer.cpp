// Interactive parameter explorer: sweep a DMS delay range and an AMS Th_RBL
// range over any workload, printing the trade-off surface (activations, IPC,
// coverage, error). Shows how a user tunes the lazy scheduler for a new app.
//
// Usage: scheme_explorer [workload] [max-delay] [max-th] [bench flags]
//   e.g. scheme_explorer BICG 512 4 --jobs 4
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;

  const knobs::Cli cli =
      knobs::parse_or_exit(argc, argv, knobs::bench_rows(), "[WORKLOAD] [MAX-DELAY] [MAX-TH]", 3);
  const std::vector<std::string>& ops = cli.operands();
  const std::string app = ops.empty() ? "SCP" : ops[0];
  if (workloads::find_workload(app) == nullptr)
    cli.fail(workloads::unknown_workload_message(app));
  // The bound keeps the grid loops below (delay += 128, th *= 2) finite.
  constexpr knobs::Knob kBound{.kind = knobs::Kind::kCount, .hi = 1u << 20};
  const auto operand = [&](std::size_t i, std::uint64_t fallback) {
    knobs::Value v{fallback};
    if (ops.size() > i && !knobs::parse(kBound, ops[i], &v))
      cli.fail("'" + ops[i] + "' not recognized (want " + knobs::accepted(kBound) + ")");
    return v.count;
  };
  const Cycle max_delay = operand(1, 512);
  const unsigned max_th = static_cast<unsigned>(operand(2, 8));

  const auto spec_for = [](const sim::ExperimentRunner& runner, Cycle delay, unsigned th) {
    core::SchemeSpec spec;
    if (delay > 0) spec = core::make_static_dms_spec(delay, runner.config().scheme);
    if (th > 0) {
      if (delay > 0)
        spec = core::make_combo_spec(delay, th, runner.config().scheme);
      else
        spec = core::make_static_ams_spec(th, runner.config().scheme);
    }
    return spec;
  };

  sim::ExperimentRunner runner(cli);
  runner.prefetch_baseline(app);
  for (Cycle delay = 0; delay <= max_delay; delay += 128)
    for (unsigned th = 0; th <= max_th; th = th == 0 ? 1 : th * 2)
      runner.prefetch(app, spec_for(runner, delay, th));
  runner.flush();

  const sim::RunMetrics& base = runner.baseline(app);
  std::cout << "Exploring " << app << " (baseline: " << base.activations
            << " activations, IPC " << TextTable::num(base.ipc, 2) << ", Avg-RBL "
            << TextTable::num(base.avg_rbl, 2) << ")\n\n";

  TextTable table({"Delay", "Th_RBL", "Activations", "RowEnergy", "IPC", "Coverage",
                   "AppError"});
  for (Cycle delay = 0; delay <= max_delay; delay += 128) {
    for (unsigned th = 0; th <= max_th; th = th == 0 ? 1 : th * 2) {
      const sim::RunMetrics& m = runner.run(app, spec_for(runner, delay, th));
      table.add_row({std::to_string(delay), th == 0 ? "off" : std::to_string(th),
                     TextTable::num(static_cast<double>(m.activations) /
                                        static_cast<double>(base.activations),
                                    3),
                     TextTable::num(m.row_energy_nj / base.row_energy_nj, 3),
                     TextTable::num(m.ipc / base.ipc, 3),
                     TextTable::num(m.coverage * 100, 1) + "%",
                     TextTable::num(m.app_error * 100, 2) + "%"});
    }
  }
  table.print(std::cout);
  std::cout << "\nAll values normalized to the FR-FCFS baseline.\n";
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
