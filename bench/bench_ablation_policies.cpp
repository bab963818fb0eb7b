// Ablation: scheduler/row-policy baselines. Quantifies how much locality the
// FR-FCFS + open-row baseline already provides over in-order FCFS and over a
// closed-row policy — context for the paper's "baseline is already
// locality-optimized" framing (Section II-C), plus the delay-all-requests
// variant of DMS (the paper's design never delays row hits).
#include <iostream>

#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Ablation — FCFS / closed-row / delay-all-requests vs the paper design",
      "FR-FCFS + open-row is the locality-optimized baseline; DMS must "
      "exempt row hits from the age gate");

  sim::ExperimentRunner runner(cli);
  TextTable table({"Workload", "FCFS acts", "ClosedRow acts", "DMS(128) acts",
                   "DelayAll(128) acts", "DMS(128) IPC", "DelayAll IPC"});

  sim::RunConfig fcfs;
  fcfs.gpu = runner.config();
  fcfs.gpu.policy.name = "fcfs";
  fcfs.compute_error = false;

  sim::RunConfig closed;
  closed.gpu = runner.config();
  closed.row_policy = RowPolicy::kClosedRow;
  closed.spec = core::make_scheme_spec(core::SchemeKind::kBaseline, closed.gpu.scheme);
  closed.compute_error = false;

  sim::RunConfig all;
  all.gpu = runner.config();
  all.spec = core::make_static_dms_spec(128, all.gpu.scheme);
  all.spec.dms_delay_row_hits = true;
  all.compute_error = false;

  for (const std::string& app :
       {std::string("SCP"), std::string("LPS"), std::string("MVT"), std::string("FWT")}) {
    runner.prefetch_baseline(app);
    runner.prefetch_custom(app, fcfs, "abl/fcfs");
    runner.prefetch_custom(app, closed, "abl/closed");
    runner.prefetch(app, core::make_static_dms_spec(128, runner.config().scheme), false);
    runner.prefetch_custom(app, all, "abl/delayall128");
  }
  runner.flush();

  for (const std::string& app :
       {std::string("SCP"), std::string("LPS"), std::string("MVT"), std::string("FWT")}) {
    const sim::RunMetrics& base = runner.baseline(app);
    const sim::RunMetrics& mf = runner.run_custom(app, fcfs, "abl/fcfs");
    const sim::RunMetrics& mc = runner.run_custom(app, closed, "abl/closed");
    const sim::RunMetrics& dms = runner.run(
        app, core::make_static_dms_spec(128, runner.config().scheme), false);
    const sim::RunMetrics& ma = runner.run_custom(app, all, "abl/delayall128");

    const auto norm = [&](const sim::RunMetrics& m) {
      return TextTable::num(
          static_cast<double>(m.activations) / static_cast<double>(base.activations), 3);
    };
    table.add_row({app, norm(mf), norm(mc), norm(dms), norm(ma),
                   TextTable::num(dms.ipc / base.ipc, 3),
                   TextTable::num(ma.ipc / base.ipc, 3)});
  }
  table.print(std::cout);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
