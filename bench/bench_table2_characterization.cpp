// Table II + Table III: measure every application model's five features and
// classify them with the paper's thresholds; report the measured level next
// to the paper's (our declared target) for validation.
#include <iostream>

#include "common/knobs.hpp"
#include "common/table.hpp"
#include "sim/characterize.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  using workloads::level_name;

  sim::print_bench_header(
      "Table II/III — per-application feature characterization",
      "each app's thrashing level, delay tolerance, activation sensitivity, "
      "Th_RBL sensitivity and error tolerance (Table III thresholds)");

  sim::ExperimentRunner runner(cli);
  TextTable table({"Workload", "Grp", "Thrash(meas/target)", "DelayTol", "ActSens",
                   "ThSens", "ErrTol", "rbl18%", "MTD", "dAct@2048", "err%", "cov%"});

  unsigned matches = 0, cells = 0;
  for (const sim::Characterization& c : sim::characterize_all(runner)) {
    const auto cell = [&](workloads::Level measured, workloads::Level target) {
      ++cells;
      if (measured == target) ++matches;
      return std::string(level_name(measured)) + "/" + level_name(target);
    };
    const auto bool_cell = [&](bool measured, bool target) {
      ++cells;
      if (measured == target) ++matches;
      return std::string(measured ? "High" : "Low") + "/" + (target ? "High" : "Low");
    };
    table.add_row({c.name, std::to_string(c.group),
                   cell(c.thrashing, c.declared.thrashing),
                   cell(c.delay_tolerance, c.declared.delay_tolerance),
                   cell(c.act_sensitivity, c.declared.activation_sensitivity),
                   bool_cell(c.th_rbl_sensitive, c.declared.th_rbl_sensitive),
                   cell(c.error_tolerance, c.declared.error_tolerance),
                   TextTable::num(c.rbl18_request_share * 100, 1),
                   std::to_string(c.mtd), TextTable::pct(c.act_reduction_2048, 1),
                   TextTable::num(c.app_error * 100, 1),
                   TextTable::num(c.coverage * 100, 1)});
  }
  table.print(std::cout);
  std::cout << "\nClassification agreement with Table II: " << matches << "/" << cells
            << " cells\n";
  std::cout << "(Table III thresholds: thrashing 3%/10% of requests in RBL(1-8) rows; "
               "delay tolerance MTD 256/1024; act sensitivity 10%/20% at DMS(2048); "
               "Th_RBL sensitivity 5%; error tolerance 20%/5%.)\n";
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
