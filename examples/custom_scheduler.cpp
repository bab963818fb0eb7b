// Extensibility demo: plug a user-defined memory-scheduling policy into the
// simulated GPU via the SchedulerRegistry. Implements "Oldest-Row-First" — a
// toy policy that, on a row miss, opens the row with the MOST pending
// requests instead of the oldest request's row — registers it under the name
// "densest-row", and compares it against FR-FCFS and the paper's Dyn-DMS.
//
// Usage: custom_scheduler [workload]
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/knobs.hpp"
#include "common/table.hpp"
#include "core/scheduler_registry.hpp"
#include "gpu/gpu_top.hpp"
#include "sim/metrics.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace lazydram;

/// Toy policy: serve row hits first (like FR-FCFS); on a miss, pick the
/// pending request whose row has the largest pending group — a greedy
/// locality-maximizer that ignores age (and can starve old requests).
/// It keeps the default SchedulerTraits (hit-first, memo-safe); a policy that
/// breaks either passes e.g. Scheduler(SchedulerTraits{/*hit_first=*/false}).
class DensestRowFirstScheduler final : public Scheduler {
 public:
  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override {
    (void)now;
    if (bank.row_open) {
      if (const MemRequest* hit = queue.oldest_for_row(bank.bank, bank.open_row))
        return Decision::serve(hit->id);
    }
    const MemRequest* best = nullptr;
    unsigned best_group = 0;
    std::unordered_map<RowId, unsigned> group_size;
    for (const MemRequest* r : queue.bank_requests(bank.bank))
      ++group_size[r->loc.row];
    for (const MemRequest* r : queue.bank_requests(bank.bank)) {
      const unsigned g = group_size[r->loc.row];
      if (g > best_group) {
        best_group = g;
        best = r;
      }
    }
    return best == nullptr ? Decision::none() : Decision::serve(best->id);
  }
};

sim::RunMetrics run_one(const workloads::Workload& wl, const GpuConfig& cfg,
                        const core::SchemeSpec& spec, const std::string& label) {
  gpu::GpuTop top(cfg, wl, core::make_scheduler_factory(cfg, spec));
  top.run();
  return sim::collect_metrics(top, wl, label, /*compute_error=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  const knobs::Cli cli = knobs::parse_or_exit(argc, argv, {}, "[WORKLOAD]", 1);
  const std::string app = cli.operands().empty() ? "SCP" : cli.operands()[0];
  const auto wl = workloads::find_workload(app);
  if (wl == nullptr) cli.fail(workloads::unknown_workload_message(app));

  // One registration makes the policy constructible by name everywhere the
  // registry reaches: here, LAZYDRAM_POLICY=densest-row, bench --policy.
  core::SchedulerRegistry::instance().register_policy(
      "densest-row", "DensestRowFirst",
      "toy demo: open the row with the most pending requests",
      [](const core::PolicyRequest&) -> std::unique_ptr<Scheduler> {
        return std::make_unique<DensestRowFirstScheduler>();
      });

  GpuConfig cfg;
  const sim::RunMetrics base = run_one(*wl, cfg, core::SchemeSpec{}, "FR-FCFS");

  GpuConfig custom_cfg = cfg;
  custom_cfg.policy.name = "densest-row";
  const sim::RunMetrics custom =
      run_one(*wl, custom_cfg, core::SchemeSpec{}, "DensestRowFirst");

  const core::SchemeSpec dyn = core::make_scheme_spec(core::SchemeKind::kDynDms,
                                                      cfg.scheme);
  const sim::RunMetrics dms = run_one(*wl, cfg, dyn, "Dyn-DMS");

  std::cout << "Custom scheduling policy on " << app << ":\n\n";
  TextTable table({"Policy", "Activations", "Avg-RBL", "IPC"});
  for (const sim::RunMetrics* m : {&base, &custom, &dms})
    table.add_row({m->scheme,
                   TextTable::num(static_cast<double>(m->activations) /
                                      static_cast<double>(base.activations),
                                  3),
                   TextTable::num(m->avg_rbl, 2), TextTable::num(m->ipc / base.ipc, 3)});
  table.print(std::cout);
  std::cout << "\nDensestRowFirst trades fairness for locality; Dyn-DMS gets locality\n"
               "while bounding the performance loss via its BWUTIL guard.\n";
  return 0;
}
