// Policy arena: the registry's scheduler rivals head-to-head on the diffcheck
// workload trio. Every lane is constructed through the SchedulerRegistry from
// a "name[:key=value,...]" spec — the same grammar $LAZYDRAM_POLICY and the
// config accept — so this bench doubles as the CI smoke for the whole policy
// plugin path (strict protocol checking via --check, parallel via --jobs,
// machine-readable via --json).
//
//   frfcfs    — the locality-optimized baseline every column normalizes to
//   fcfs      — strict arrival order (how much FR-FCFS reordering buys)
//   bliss     — blacklisting fairness (trades row locality for fairness)
//   batch-rr  — batch-capped round-robin (bounded per-row streaks)
//   autotune  — hill-climbing delay autotuner, the Dyn-DMS rival
//
// The Dyn-DMS paper scheme rides along as the reference the autotuner is
// chasing.
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/scheduler_registry.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv, {&knobs::kPolicies});
  sim::print_bench_header(
      "Policy arena — registry scheduler rivals vs the FR-FCFS baseline",
      "FCFS shows what reordering buys; BLISS/Batch-RR trade locality for "
      "fairness; the autotuner chases Dyn-DMS without its profiler");

  // Policy specs are semicolon-free CSV items; keys ride along after ':'
  // (e.g. --policies "frfcfs,bliss:threshold=8,batch-rr:cap=2"). Note the
  // grammar's own commas separate keys, so per-policy keys cannot be combined
  // with --policies CSV — tune via $LAZYDRAM_POLICY runs instead.
  const std::vector<std::string> specs = knobs::split(cli.get(knobs::kPolicies).text);

  const std::vector<std::string> apps = {"SCP", "inversek2j", "CONS"};

  sim::ExperimentRunner runner(cli);

  struct Lane {
    std::string spec;
    std::string label;
    sim::RunConfig rc;
  };
  std::vector<Lane> lanes;
  for (const std::string& spec : specs) {
    Lane lane;
    lane.spec = spec;
    lane.rc.gpu = runner.config();
    std::string error;
    if (!core::parse_policy_spec(spec, lane.rc.gpu, &error))
      cli.fail("bad --policies entry '" + spec + "': " + error);
    lane.label = core::run_label(lane.rc.gpu, lane.rc.spec);
    lane.rc.compute_error = false;
    lanes.push_back(std::move(lane));
  }

  for (const std::string& app : apps) {
    runner.prefetch_baseline(app);
    runner.prefetch_scheme(app, core::SchemeKind::kDynDms, false);
    for (const Lane& lane : lanes)
      runner.prefetch_custom(app, lane.rc, "arena/" + lane.spec);
  }
  runner.flush();

  enum class View { kActs, kIpc, kAvgRbl };
  const struct {
    View view;
    const char* title;
  } kViews[] = {{View::kActs, "(a) Activations (normalized to FR-FCFS)"},
                {View::kIpc, "(b) IPC (normalized to FR-FCFS)"},
                {View::kAvgRbl, "(c) Avg-RBL (absolute)"}};

  for (const auto& [view, title] : kViews) {
    std::vector<std::string> header = {"Workload"};
    for (const Lane& lane : lanes) header.push_back(lane.label);
    header.emplace_back("Dyn-DMS");
    TextTable table(header);

    for (const std::string& app : apps) {
      const sim::RunMetrics& base = runner.baseline(app);
      const auto cell = [&](const sim::RunMetrics& m) {
        double v = 0.0;
        switch (view) {
          case View::kActs:
            v = static_cast<double>(m.activations) / static_cast<double>(base.activations);
            break;
          case View::kIpc:
            v = m.ipc / base.ipc;
            break;
          case View::kAvgRbl:
            v = m.avg_rbl;
            break;
        }
        return TextTable::num(v, 3);
      };
      std::vector<std::string> row = {app};
      for (const Lane& lane : lanes)
        row.push_back(cell(runner.run_custom(app, lane.rc, "arena/" + lane.spec)));
      row.push_back(cell(runner.run_scheme(app, core::SchemeKind::kDynDms, false)));
      table.add_row(std::move(row));
    }
    std::cout << "\n" << title << "\n";
    table.print(std::cout);
  }

  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
