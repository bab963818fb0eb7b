// Multi-tenant load generator: N clients with independent kernel mixes,
// arrival processes and approximation budgets share the machine, and the
// bench reports what each of them experienced — slowdown vs running alone,
// per-tenant AMS coverage against its cap, and per-tenant read-latency tail
// percentiles — plus the Jain fairness index over the slowdowns.
//
// Flags: EXPERIMENTS.md "Knobs" (--jobs sets the parallel alone-run baseline
// lanes; output is identical for any value).
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/knobs.hpp"
#include "common/table.hpp"
#include "core/scheme.hpp"
#include "sim/multitenant.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  using namespace lazydram;
  const knobs::Cli cli = knobs::bench_cli(
      argc, argv, {&knobs::kTenants, &knobs::kScheme, &knobs::kDuration, &knobs::kSeed});
  sim::print_bench_header(
      "Multi-tenant mix — per-client slowdown, fairness and QoS budgets",
      "beyond the paper: its single-app DMS/AMS knobs become per-tenant "
      "budgets when independent clients share the memory system");

  const std::string tenants_text = cli.get(knobs::kTenants).text;
  const std::uint64_t seed = cli.get(knobs::kSeed).count;

  sim::RunConfig rc;
  rc.check = cli.get(knobs::kCheck).text;
  rc.gpu.self_profile = cli.get(knobs::kSelfProfile).on;
  rc.gpu.heartbeat_seconds = cli.get(knobs::kHeartbeat).seconds;
  if (cli.has(knobs::kDuration)) rc.max_core_cycles = cli.get(knobs::kDuration).count;

  // The --scheme words are listed in core::all_schemes() order.
  const std::string scheme_text = cli.get(knobs::kScheme).text;
  const core::SchemeKind kind =
      core::all_schemes()[*knobs::word_index(knobs::kScheme, scheme_text)];
  rc.spec = core::make_scheme_spec(kind, rc.gpu.scheme);

  std::vector<gpu::TenantSpec> specs;
  try {
    specs = gpu::parse_tenant_specs(tenants_text);
  } catch (const std::invalid_argument& e) {
    cli.fail(std::string("bad --tenants: ") + e.what());
  }
  gpu::TenantSet tenants(std::move(specs), seed);

  std::cout << "\nTenants (" << tenants.size() << "), scheme " << scheme_text
            << ", seed " << seed << ":\n";
  for (TenantId t = 0; t < tenants.size(); ++t) {
    const gpu::TenantSpec& s = tenants.spec(t);
    std::cout << "  t" << t << "  " << s.name
              << "  warps=" << tenants.workload().tenant_warps(t)
              << "  repeat=" << s.repeat << "  think=" << s.think
              << "  approx=" << (s.approx ? 1 : 0);
    if (s.coverage_cap >= 0.0) std::cout << "  cap=" << s.coverage_cap;
    if (s.dms_delay_cap != kNeverCycle) std::cout << "  delay_cap=" << s.dms_delay_cap;
    std::cout << "\n";
  }

  const unsigned jobs = sim::default_jobs(cli.get(knobs::kJobs).count);
  sim::MultitenantResult result;
  try {
    result = sim::run_multitenant(tenants, rc, jobs);
  } catch (const std::exception& e) {
    std::cerr << "bench_multitenant: run failed: " << e.what() << "\n";
    return 1;
  }
  const sim::RunMetrics& m = result.shared.metrics;

  TextTable table({"Tenant", "Slowdown", "Coverage", "Cap", "p50", "p95", "p99",
                   "AppErr", "Drops/Recv"});
  for (const sim::TenantMetrics& t : m.tenants) {
    const gpu::TenantSpec& s = tenants.spec(t.id);
    table.add_row({t.name, TextTable::num(t.slowdown, 3), TextTable::num(t.coverage, 4),
                   s.coverage_cap >= 0.0 ? TextTable::num(s.coverage_cap, 4) : "-",
                   std::to_string(t.read_latency_p50), std::to_string(t.read_latency_p95),
                   std::to_string(t.read_latency_p99), TextTable::num(t.app_error, 4),
                   std::to_string(t.drops) + "/" + std::to_string(t.reads_received)});
  }
  std::cout << "\nShared run: " << m.core_cycles << " core cycles, IPC "
            << TextTable::num(m.ipc, 3) << ", coverage "
            << TextTable::num(m.coverage, 4) << "\n\n";
  table.print(std::cout);
  std::cout << "\nJain fairness index over slowdowns: "
            << TextTable::num(m.jain_fairness, 4) << "  (1.0 = perfectly fair, 1/"
            << (m.tenants.empty() ? 1 : m.tenants.size()) << " = one tenant starved)\n";

  const std::string json_path = cli.get(knobs::kJson).text;
  if (!json_path.empty() && sim::write_multitenant_report(json_path, result))
    std::cout << "\nJSON report written to " << json_path << "\n";
  return 0;
}
