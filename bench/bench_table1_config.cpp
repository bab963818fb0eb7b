// Table I: key configuration parameters of the simulated GPU.
#include <iostream>

#include "common/config.hpp"
#include "common/knobs.hpp"
#include "common/table.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  knobs::bench_cli(argc, argv);
  sim::print_bench_header("Table I — simulated GPU configuration",
                          "30 SMs @1400MHz, 6 GDDR5 MCs @924MHz, FR-FCFS, "
                          "128-entry pending queues, Hynix GDDR5 timing");
  GpuConfig cfg;
  cfg.validate();
  TextTable table({"Parameter", "Value"});
  for (const auto& [key, value] : cfg.describe()) table.add_row({key, value});
  table.print(std::cout);
  return 0;
}
