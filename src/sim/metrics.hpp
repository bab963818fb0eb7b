// Run-level metrics: everything the paper's figures report, collected from a
// finished GpuTop.
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "gpu/gpu_top.hpp"
#include "telemetry/hub.hpp"
#include "workloads/workload.hpp"

namespace lazydram::sim {

/// Per-tenant slice of a multi-tenant run. Counter fields sum the
/// controllers' per-tenant accounting (exact: tenant slices reconcile
/// against the aggregates); slowdown and fairness need alone-run baselines
/// and are filled by sim::run_multitenant, not collect_metrics.
struct TenantMetrics {
  TenantId id = 0;
  std::string name;
  std::uint64_t instructions = 0;
  Cycle finish_core_cycle = 0;  ///< Core cycle the tenant's last warp retired.
  std::uint64_t reads_received = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t drops = 0;
  double coverage = 0.0;  ///< drops / reads_received for this tenant.
  double avg_read_latency_mem_cycles = 0.0;
  Histogram read_latency_hist{4096};  ///< Merged over channels.
  std::uint64_t read_latency_p50 = 0;
  std::uint64_t read_latency_p95 = 0;
  std::uint64_t read_latency_p99 = 0;
  double app_error = 0.0;  ///< This tenant's outputs only.
  /// Shared-run finish / alone-run finish; 0 until run_multitenant fills it.
  double slowdown = 0.0;
};

struct RunMetrics {
  std::string workload;
  std::string scheme;
  bool finished = false;

  Cycle core_cycles = 0;
  Cycle mem_cycles = 0;
  /// Core cycle the last warp retired (core_cycles minus the memory drain
  /// tail). Slowdown baselines use this so shared-run per-tenant finishes and
  /// alone-run finishes measure the same thing.
  Cycle warps_finish_core_cycle = 0;
  std::uint64_t instructions = 0;
  double ipc = 0.0;

  // DRAM-side aggregates (summed over channels).
  std::uint64_t activations = 0;
  std::uint64_t dram_reads = 0;   ///< Column read accesses served.
  std::uint64_t dram_writes = 0;  ///< Column write accesses served.
  std::uint64_t drops = 0;        ///< AMS-dropped (VP-served) reads.
  std::uint64_t reads_received = 0;

  /// Avg-RBL = column accesses / activations (Section II-D; dropped requests
  /// never reach a bank and are excluded, as in Fig. 8's arithmetic).
  double avg_rbl = 0.0;

  // Energy breakdown (summed over channels). row/access come from the
  // EnergyMeter oracle; background/refresh from the state-based power
  // accountant every DRAM channel owns.
  double row_energy_nj = 0.0;
  double access_energy_nj = 0.0;
  double background_energy_nj = 0.0;
  double refresh_energy_nj = 0.0;
  double total_energy_nj = 0.0;
  /// row / total — the *measured* row-energy share of this run. Replaces
  /// the analytic row-share constant in the measured savings tables.
  double measured_row_share = 0.0;
  /// Whole-DRAM average power in watts (total energy / wall-clock memory
  /// cycles at mem_clock_mhz).
  double avg_power_w = 0.0;
  /// Per-bank total energy, summed over channels (bank b of every channel
  /// folds into entry b).
  std::vector<double> bank_energy_nj;

  double coverage = 0.0;   ///< drops / global reads received.
  double app_error = 0.0;  ///< Average relative output error.

  double avg_delay = 0.0;   ///< Time-weighted DMS delay (0 without DMS).
  double avg_th_rbl = 0.0;  ///< Time-weighted Th_RBL (0 without AMS).
  double bwutil = 0.0;      ///< Data-bus busy cycles / memory cycles.

  double l2_hit_rate = 0.0;
  double avg_read_latency_mem_cycles = 0.0;

  /// Read-latency distribution (enqueue -> data return, memory cycles),
  /// merged over channels. The percentiles come from here; the mean stays
  /// the exact Summary-based average above.
  Histogram read_latency_hist{4096};
  std::uint64_t read_latency_p50 = 0;
  std::uint64_t read_latency_p95 = 0;
  std::uint64_t read_latency_p99 = 0;

  Histogram rbl_hist{64};           ///< Activation count per achieved RBL.
  Histogram rbl_readonly_hist{64};  ///< Same, rows that served only reads.

  /// Per-tenant slices; empty for single-tenant runs.
  std::vector<TenantMetrics> tenants;
  /// Jain fairness index over per-tenant slowdowns; 0 until run_multitenant
  /// fills the slowdowns (needs alone-run baselines).
  double jain_fairness = 0.0;

  /// Requests served by activations of RBL in [lo, hi] divided by all
  /// column accesses (Table III's "thrashing level" numerator uses [1, 8]).
  double request_share_with_rbl(std::uint64_t lo, std::uint64_t hi) const;
};

/// Gathers metrics from a finished run through the telemetry stat registry.
/// Pass `hub` when the caller already registered the GpuTop's stats (so one
/// registry serves metrics, reports and tests); with nullptr a local
/// registration is used. Application error is computed only when requested
/// AND at least one line was approximated (it requires two functional
/// executions of the workload).
RunMetrics collect_metrics(const gpu::GpuTop& gpu, const workloads::Workload& workload,
                           const std::string& scheme_name, bool compute_error,
                           const telemetry::TelemetryHub* hub = nullptr);

}  // namespace lazydram::sim
