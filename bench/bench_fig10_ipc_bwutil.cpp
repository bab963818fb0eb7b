// Fig. 10: IPC and DRAM bandwidth utilization are linearly correlated across
// applications and delay settings — the observation that lets Dyn-DMS track
// performance locally at the memory controller via BWUTIL.
#include <cmath>
#include <cstdio>

#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(argc, argv);
  sim::print_bench_header(
      "Fig. 10 — IPC vs BWUTIL across applications and delays",
      "normalized IPC and normalized BWUTIL are linearly correlated");

  sim::ExperimentRunner runner(cli);
  const std::vector<Cycle> delays = {0, 256, 1024, 2048};

  for (const std::string& app : sim::bench_workloads()) {
    runner.prefetch_baseline(app);
    for (const Cycle d : delays)
      if (d != 0)
        runner.prefetch(app, core::make_static_dms_spec(d, runner.config().scheme), false);
  }
  runner.flush();

  std::vector<double> xs, ys;
  std::printf("%-14s %-8s %-10s %-10s %-9s %-9s %-9s\n", "Workload", "Delay",
              "IPC/base", "BW/base", "lat_p50", "lat_p95", "lat_p99");
  for (const std::string& app : sim::bench_workloads()) {
    const sim::RunMetrics& base = runner.baseline(app);
    for (const Cycle d : delays) {
      const sim::RunMetrics& m =
          d == 0 ? base
                 : runner.run(app, core::make_static_dms_spec(d, runner.config().scheme),
                              false);
      const double ipc_n = m.ipc / base.ipc;
      const double bw_n = m.bwutil / base.bwutil;
      xs.push_back(bw_n);
      ys.push_back(ipc_n);
      std::printf("%-14s %-8llu %-10.3f %-10.3f %-9llu %-9llu %-9llu\n", app.c_str(),
                  static_cast<unsigned long long>(d), ipc_n, bw_n,
                  static_cast<unsigned long long>(m.read_latency_p50),
                  static_cast<unsigned long long>(m.read_latency_p95),
                  static_cast<unsigned long long>(m.read_latency_p99));
    }
  }

  // Pearson correlation of normalized IPC vs normalized BWUTIL.
  const double mx = sim::mean(xs), my = sim::mean(ys);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  const double r = sxy / std::sqrt(std::max(sxx * syy, 1e-12));
  std::printf("\nPearson correlation (IPC vs BWUTIL): r = %.3f\n", r);
  runner.write_sweep_report(cli.get(knobs::kJson).text);
  return 0;
}
