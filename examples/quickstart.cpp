// Quickstart: run one workload under the seven paper schemes and print the
// headline metrics (row energy, IPC, coverage, application error). The runs
// go out as one sweep, so $LAZYDRAM_TRACE / $LAZYDRAM_JSON name one file per
// scheme (trace.jsonl -> trace.SCP_Baseline.jsonl, ...).
//
// Usage: quickstart [workload-name]   (default: SCP)
#include <iostream>
#include <string>

#include "common/knobs.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "sim/experiment.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;

  const knobs::Cli cli = knobs::parse_or_exit(argc, argv, {}, "[WORKLOAD]", 1);
  const std::string name = cli.operands().empty() ? "SCP" : cli.operands()[0];
  const auto workload = workloads::find_workload(name);
  if (workload == nullptr) cli.fail(workloads::unknown_workload_message(name));

  std::cout << "lazydram quickstart — workload: " << workload->name() << " ("
            << workload->description() << ")\n\n";

  sim::ExperimentRunner runner;  // Table I defaults.
  for (const core::SchemeKind kind : core::all_schemes())
    runner.prefetch_scheme(workload->name(), kind);
  runner.flush();

  const sim::RunMetrics& baseline =
      runner.run_scheme(workload->name(), core::SchemeKind::kBaseline);
  TextTable table({"Scheme", "Activations", "Avg-RBL", "RowEnergy", "IPC", "Coverage",
                   "AppError", "AvgDelay"});

  for (const core::SchemeKind kind : core::all_schemes()) {
    const sim::RunMetrics& m = runner.run_scheme(workload->name(), kind);

    const double act_norm =
        static_cast<double>(m.activations) / static_cast<double>(baseline.activations);
    const double energy_norm = m.row_energy_nj / baseline.row_energy_nj;
    const double ipc_norm = m.ipc / baseline.ipc;

    table.add_row({m.scheme, TextTable::num(act_norm, 3) + " x", TextTable::num(m.avg_rbl, 2),
                   TextTable::num(energy_norm, 3) + " x", TextTable::num(ipc_norm, 3) + " x",
                   TextTable::num(m.coverage * 100, 1) + "%",
                   TextTable::num(m.app_error * 100, 2) + "%",
                   TextTable::num(m.avg_delay, 0)});
  }

  table.print(std::cout);
  std::cout << "\n(Activations, row energy and IPC are normalized to Baseline.)\n";
  return 0;
}
