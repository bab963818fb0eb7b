// Fig. 7: how AMS helps DMS — two case studies.
//  (a) LPS: DMS cannot reduce activations much without losing IPC; AMS(8)
//      reduces activations AND gains IPC at <1% application error.
//  (b) SCP: the 5% IPC budget blocks larger delays; adding AMS compensates
//      the IPC loss, so DMS(256)+AMS(8) achieves more total reduction.
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

using namespace lazydram;

namespace {

void prefetch_case_study(sim::ExperimentRunner& runner, const std::string& app,
                         const std::vector<std::pair<std::string, core::SchemeSpec>>& cases) {
  runner.prefetch_baseline(app);
  for (const auto& c : cases) runner.prefetch(app, c.second, /*compute_error=*/true);
}

void case_study(sim::ExperimentRunner& runner, const std::string& app,
                const std::vector<std::pair<std::string, core::SchemeSpec>>& cases) {
  const sim::RunMetrics& base = runner.baseline(app);
  TextTable table({"Scheme", "Norm. activations", "Norm. IPC", "Coverage", "AppError"});
  for (const auto& [label, spec] : cases) {
    const sim::RunMetrics& m = runner.run(app, spec, /*compute_error=*/true);
    table.add_row({label,
                   TextTable::num(static_cast<double>(m.activations) /
                                      static_cast<double>(base.activations),
                                  3),
                   TextTable::num(m.ipc / base.ipc, 3),
                   TextTable::num(m.coverage * 100, 1) + "%",
                   TextTable::num(m.app_error * 100, 2) + "%"});
  }
  std::cout << "\n" << app << ":\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 7 — AMS helps DMS (case studies LPS, SCP)",
      "(a) LPS: DMS gains little (2% at MTD), AMS(8) cuts ~16% acts and "
      "gains IPC; (b) SCP: AMS's IPC gain lets DMS adopt a larger delay");

  sim::ExperimentRunner runner(cli);
  const SchemeParams& p = runner.config().scheme;

  const std::vector<std::pair<std::string, core::SchemeSpec>> lps_cases = {
      {"DMS(256)", core::make_static_dms_spec(256, p)},
      {"DMS(512)", core::make_static_dms_spec(512, p)},
      {"AMS(8)", core::make_static_ams_spec(8, p)}};
  const std::vector<std::pair<std::string, core::SchemeSpec>> scp_cases = {
      {"DMS(128)", core::make_static_dms_spec(128, p)},
      {"DMS(256)", core::make_static_dms_spec(256, p)},
      {"AMS(8)", core::make_static_ams_spec(8, p)},
      {"DMS(256)+AMS(8)", core::make_combo_spec(256, 8, p)}};

  prefetch_case_study(runner, "LPS", lps_cases);
  prefetch_case_study(runner, "SCP", scp_cases);
  runner.flush();

  case_study(runner, "LPS", lps_cases);
  case_study(runner, "SCP", scp_cases);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
