#include "sim/metrics.hpp"

#include <utility>

#include "workloads/mix.hpp"

namespace lazydram::sim {

double RunMetrics::request_share_with_rbl(std::uint64_t lo, std::uint64_t hi) const {
  const std::uint64_t accesses = dram_reads + dram_writes;
  if (accesses == 0) return 0.0;
  std::uint64_t served = 0;
  for (std::uint64_t k = lo; k <= hi && k <= rbl_hist.max_key(); ++k)
    served += k * rbl_hist.at(k);
  return static_cast<double>(served) / static_cast<double>(accesses);
}

RunMetrics collect_metrics(const gpu::GpuTop& gpu, const workloads::Workload& workload,
                           const std::string& scheme_name, bool compute_error,
                           const telemetry::TelemetryHub* hub_in) {
  using telemetry::channel_stat;

  // All per-component values flow through the stat registry; callers that
  // already hold a populated hub (sim::simulate) pass it in, everyone else
  // gets a local registration. Counter sums are exact, so the result is
  // bit-identical either way.
  telemetry::TelemetryHub local;
  if (hub_in == nullptr) gpu.register_stats(local);
  const telemetry::TelemetryHub& hub = hub_in != nullptr ? *hub_in : local;

  RunMetrics m;
  m.workload = workload.name();
  m.scheme = scheme_name;
  m.finished = gpu.finished();
  m.core_cycles = hub.counter("gpu.core_cycles");
  m.mem_cycles = hub.counter("gpu.mem_cycles");
  m.instructions = hub.counter("gpu.instructions");
  m.ipc = hub.gauge("gpu.ipc");
  for (TenantId t = 0; t < gpu.num_tenants(); ++t)
    if (gpu.tenant_finish_cycle(t) > m.warps_finish_core_cycle)
      m.warps_finish_core_cycle = gpu.tenant_finish_cycle(t);

  std::uint64_t bus_busy = 0;
  double latency_weighted = 0.0;
  std::uint64_t latency_count = 0;
  std::uint64_t l2_hits = 0, l2_accesses = 0;
  double delay_weight = 0.0, th_weight = 0.0;
  unsigned lazy_channels = 0;
  m.bank_energy_nj.assign(gpu.config().banks_per_channel, 0.0);

  for (ChannelId ch = 0; ch < gpu.num_channels(); ++ch) {
    m.activations += hub.counter(channel_stat("dram", ch, "activations"));
    m.dram_reads += hub.counter(channel_stat("dram", ch, "column_reads"));
    m.dram_writes += hub.counter(channel_stat("dram", ch, "column_writes"));
    m.drops += hub.counter(channel_stat("mem", ch, "reads_dropped"));
    m.reads_received += hub.counter(channel_stat("mem", ch, "reads_received"));
    m.row_energy_nj += hub.gauge(channel_stat("dram", ch, "row_energy_nj"));
    m.access_energy_nj += hub.gauge(channel_stat("dram", ch, "access_energy_nj"));
    bus_busy += hub.counter(channel_stat("dram", ch, "bus_busy_cycles"));

    m.background_energy_nj += hub.gauge(channel_stat("dram", ch, "background_energy_nj"));
    m.refresh_energy_nj += hub.gauge(channel_stat("dram", ch, "refresh_energy_nj"));
    // Per-bank energies fold across channels (bank b of every channel into
    // entry b), matching the per-bank window heatmap's axis.
    for (unsigned b = 0; b < m.bank_energy_nj.size(); ++b)
      m.bank_energy_nj[b] +=
          hub.gauge(channel_stat("dram", ch, "bank" + std::to_string(b) + ".energy_nj"));

    // Histogram::merge keeps the overflow bucket and the true-key weighted
    // sum exact; re-adding buckets through add() would fold overflowed
    // samples back in at the clamped key and skew the merged mean.
    m.rbl_hist.merge(hub.histogram(channel_stat("dram", ch, "rbl")));
    m.rbl_readonly_hist.merge(hub.histogram(channel_stat("dram", ch, "rbl_readonly")));

    const std::uint64_t lat_count =
        hub.counter(channel_stat("mem", ch, "read_latency_count"));
    latency_weighted += hub.gauge(channel_stat("mem", ch, "read_latency_mean")) *
                        static_cast<double>(lat_count);
    latency_count += lat_count;
    m.read_latency_hist.merge(hub.histogram(channel_stat("mem", ch, "read_latency")));

    l2_hits += hub.counter(channel_stat("cache.l2", ch, "hits"));
    l2_accesses += hub.counter(channel_stat("cache.l2", ch, "accesses"));

    const std::string avg_delay_stat = channel_stat("core", ch, "dms.avg_delay");
    if (hub.has_gauge(avg_delay_stat)) {
      delay_weight += hub.gauge(avg_delay_stat);
      th_weight += hub.gauge(channel_stat("core", ch, "ams.avg_th_rbl"));
      ++lazy_channels;
    }
  }

  m.total_energy_nj = m.row_energy_nj + m.access_energy_nj +
                      m.background_energy_nj + m.refresh_energy_nj;
  if (m.total_energy_nj > 0.0)
    m.measured_row_share = m.row_energy_nj / m.total_energy_nj;
  if (m.mem_cycles > 0)
    m.avg_power_w = m.total_energy_nj / static_cast<double>(m.mem_cycles) *
                    static_cast<double>(gpu.config().mem_clock_mhz) * 1e-3;
  const std::uint64_t accesses = m.dram_reads + m.dram_writes;
  m.avg_rbl = m.activations == 0
                  ? 0.0
                  : static_cast<double>(accesses) / static_cast<double>(m.activations);
  m.coverage = m.reads_received == 0
                   ? 0.0
                   : static_cast<double>(m.drops) / static_cast<double>(m.reads_received);
  // BWUTIL is per-channel utilization; the numerator sums over channels.
  m.bwutil = m.mem_cycles == 0 ? 0.0
                               : static_cast<double>(bus_busy) /
                                     (static_cast<double>(m.mem_cycles) * gpu.num_channels());
  m.avg_read_latency_mem_cycles =
      latency_count == 0 ? 0.0 : latency_weighted / static_cast<double>(latency_count);
  m.read_latency_p50 = m.read_latency_hist.percentile(0.50);
  m.read_latency_p95 = m.read_latency_hist.percentile(0.95);
  m.read_latency_p99 = m.read_latency_hist.percentile(0.99);
  m.l2_hit_rate =
      l2_accesses == 0 ? 0.0 : static_cast<double>(l2_hits) / static_cast<double>(l2_accesses);
  if (lazy_channels > 0) {
    m.avg_delay = delay_weight / lazy_channels;
    m.avg_th_rbl = th_weight / lazy_channels;
  }

  // One pair of functional passes yields the aggregate and, on multi-tenant
  // runs, every tenant's error.
  std::vector<double> tenant_errors;
  if (compute_error && !gpu.fmem().overlay().empty()) {
    const auto* mix = gpu.num_tenants() > 1
                          ? dynamic_cast<const workloads::MixWorkload*>(&workload)
                          : nullptr;
    if (mix != nullptr) {
      workloads::MixWorkload::TenantErrors errors = mix->tenant_application_errors(gpu.fmem());
      m.app_error = errors.total;
      tenant_errors = std::move(errors.tenants);
    } else {
      m.app_error = workload.application_error(gpu.fmem());
    }
  }

  // Per-tenant slices (multi-tenant runs only). Counters come straight from
  // the controllers' per-tenant accounting; per-tenant latency histograms
  // merge over channels exactly like the aggregate above.
  if (gpu.num_tenants() > 1) {
    for (TenantId t = 0; t < gpu.num_tenants(); ++t) {
      TenantMetrics tm;
      tm.id = t;
      tm.name = workload.tenant_name(t);
      tm.instructions = gpu.tenant_instructions(t);
      tm.finish_core_cycle = gpu.tenant_finish_cycle(t);
      for (ChannelId ch = 0; ch < gpu.num_channels(); ++ch) {
        const MemoryController& mc = gpu.controller(ch);
        if (t >= mc.num_tenants()) continue;
        tm.reads_received += mc.tenant_reads_received(t);
        tm.reads_served += mc.tenant_reads_served(t);
        tm.drops += mc.tenant_reads_dropped(t);
        tm.read_latency_hist.merge(mc.tenant_read_latency_hist(t));
      }
      tm.coverage = tm.reads_received == 0
                        ? 0.0
                        : static_cast<double>(tm.drops) /
                              static_cast<double>(tm.reads_received);
      tm.avg_read_latency_mem_cycles = tm.read_latency_hist.mean();
      tm.read_latency_p50 = tm.read_latency_hist.percentile(0.50);
      tm.read_latency_p95 = tm.read_latency_hist.percentile(0.95);
      tm.read_latency_p99 = tm.read_latency_hist.percentile(0.99);
      if (t < tenant_errors.size()) tm.app_error = tenant_errors[t];
      m.tenants.push_back(std::move(tm));
    }
  }
  return m;
}

}  // namespace lazydram::sim
