// Quickstart: run one workload under the seven paper schemes and print the
// headline metrics (row energy, IPC, coverage, application error).
//
// Usage: quickstart [workload-name]   (default: SCP)
#include <iostream>
#include <string>

#include "common/knobs.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "sim/simulator.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;

  const knobs::Cli cli = knobs::parse_or_exit(argc, argv, {}, "[WORKLOAD]", 1);
  const std::string name = cli.operands().empty() ? "SCP" : cli.operands()[0];
  const auto workload = workloads::find_workload(name);
  if (workload == nullptr) cli.fail(workloads::unknown_workload_message(name));

  std::cout << "lazydram quickstart — workload: " << workload->name() << " ("
            << workload->description() << ")\n\n";

  GpuConfig cfg;  // Table I defaults.

  sim::RunMetrics baseline{};
  TextTable table({"Scheme", "Activations", "Avg-RBL", "RowEnergy", "IPC", "Coverage",
                   "AppError", "AvgDelay"});

  for (const core::SchemeKind kind : core::all_schemes()) {
    const sim::RunMetrics m = sim::simulate_scheme(*workload, kind, cfg);
    if (kind == core::SchemeKind::kBaseline) baseline = m;

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
