#include "sim/run_report.hpp"

#include "common/log.hpp"
#include "telemetry/json.hpp"

namespace lazydram::sim {

void write_metrics_section(telemetry::JsonWriter& w, const RunMetrics& m) {
  w.key("metrics");
  w.begin_object();
  w.field("workload", m.workload);
  w.field("scheme", m.scheme);
  w.field("finished", m.finished);
  w.field("core_cycles", m.core_cycles);
  w.field("mem_cycles", m.mem_cycles);
  w.field("warps_finish_core_cycle", m.warps_finish_core_cycle);
  w.field("instructions", m.instructions);
  w.field("ipc", m.ipc);
  w.field("activations", m.activations);
  w.field("dram_reads", m.dram_reads);
  w.field("dram_writes", m.dram_writes);
  w.field("drops", m.drops);
  w.field("reads_received", m.reads_received);
  w.field("avg_rbl", m.avg_rbl);
  w.field("row_energy_nj", m.row_energy_nj);
  w.field("access_energy_nj", m.access_energy_nj);
  w.field("background_energy_nj", m.background_energy_nj);
  w.field("refresh_energy_nj", m.refresh_energy_nj);
  w.field("total_energy_nj", m.total_energy_nj);
  w.field("measured_row_share", m.measured_row_share);
  w.field("avg_power_w", m.avg_power_w);
  if (!m.bank_energy_nj.empty()) {
    w.key("bank_energy_nj");
    w.begin_array();
    for (const double e : m.bank_energy_nj) w.value(e);
    w.end_array();
  }
  w.field("coverage", m.coverage);
  w.field("app_error", m.app_error);
  w.field("avg_delay", m.avg_delay);
  w.field("avg_th_rbl", m.avg_th_rbl);
  w.field("bwutil", m.bwutil);
  w.field("l2_hit_rate", m.l2_hit_rate);
  w.field("avg_read_latency_mem_cycles", m.avg_read_latency_mem_cycles);
  w.field("read_latency_p50", m.read_latency_p50);
  w.field("read_latency_p95", m.read_latency_p95);
  w.field("read_latency_p99", m.read_latency_p99);
  w.field("rbl_p50", m.rbl_hist.percentile(0.50));
  w.field("rbl_p90", m.rbl_hist.percentile(0.90));
  w.field("rbl_p99", m.rbl_hist.percentile(0.99));
  if (!m.tenants.empty()) {
    w.key("tenants");
    w.begin_array();
    for (const TenantMetrics& t : m.tenants) {
      w.begin_object();
      w.field("id", static_cast<std::uint64_t>(t.id));
      w.field("name", t.name);
      w.field("instructions", t.instructions);
      w.field("finish_core_cycle", t.finish_core_cycle);
      w.field("reads_received", t.reads_received);
      w.field("reads_served", t.reads_served);
      w.field("drops", t.drops);
      w.field("coverage", t.coverage);
      w.field("avg_read_latency_mem_cycles", t.avg_read_latency_mem_cycles);
      w.field("read_latency_p50", t.read_latency_p50);
      w.field("read_latency_p95", t.read_latency_p95);
      w.field("read_latency_p99", t.read_latency_p99);
      w.field("app_error", t.app_error);
      w.field("slowdown", t.slowdown);
      w.end_object();
    }
    w.end_array();
    w.field("jain_fairness", m.jain_fairness);
  }
  w.end_object();
}

namespace {

void write_window(telemetry::JsonWriter& w, const telemetry::WindowSample& s) {
  w.begin_object();
  w.field("index", s.index);
  w.field("start", s.start_cycle);
  w.field("end", s.end_cycle);
  w.field("ticks", s.ticks);
  w.field("bus_busy", s.bus_busy_cycles);
  w.field("bwutil", s.bwutil);
  w.field("delay_sum", s.delay_sum);
  w.field("delay", s.avg_delay);
  w.field("th_rbl_sum", s.th_rbl_sum);
  w.field("th_rbl", s.avg_th_rbl);
  w.field("queue", s.queue_occupancy);
  w.field("act", s.activations);
  w.field("row_hits", s.row_hits);
  w.field("reads", s.column_reads);
  w.field("writes", s.column_writes);
  w.field("drops", s.drops);
  w.field("reads_received", s.reads_received);
  w.field("coverage", s.coverage);
  w.field("energy_nj", s.energy_nj);
  w.field("e_row", s.energy_row_nj);
  w.field("e_access", s.energy_access_nj);
  w.field("e_bg", s.energy_background_nj);
  w.field("e_ref", s.energy_refresh_nj);
  w.field("power_w", s.avg_power_w);
  if (!s.banks.empty()) {
    w.key("banks");
    w.begin_array();
    for (const telemetry::BankWindowSample& b : s.banks) {
      w.begin_object();
      w.field("act", b.activations);
      w.field("cols", b.column_accesses);
      w.field("row_hits", b.row_hits);
      w.field("drops", b.drops);
      w.field("stall", b.dms_stall_cycles);
      w.field("active", b.active_cycles);
      w.field("energy_nj", b.energy_nj);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void write_lifecycle_section(telemetry::JsonWriter& w,
                             const telemetry::LifecycleSummary& s) {
  w.key("lifecycle");
  w.begin_object();
  w.field("sample_every", s.sample_every);
  w.field("sampled", s.sampled);
  w.field("served", s.served);
  w.field("dropped", s.dropped);
  w.field("mshr_merges", s.mshr_merges);
  w.key("phases");
  w.begin_array();
  for (const auto& p : s.phases) {
    w.begin_object();
    w.field("phase", p.phase);
    w.field("count", p.count);
    w.field("mean", p.mean);
    w.field("p50", p.p50);
    w.field("p95", p.p95);
    w.field("p99", p.p99);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// The simulator's own wall-time attribution: where the host CPU time went
// (core side vs memory-only spans), the sampled step decomposition, and the
// merged SelfProfiler zone tree. Present only when GpuConfig::self_profile
// armed the profiler for this run.
void write_self_profile_section(telemetry::JsonWriter& w,
                                const telemetry::SelfProfileReport& sp) {
  w.key("self_profile");
  w.begin_object();
  w.field("run_wall_seconds", sp.run_wall_seconds);
  w.field("serial_seconds", sp.serial_seconds);
  w.field("mem_serial_seconds", sp.mem_serial_seconds);
  w.field("serial_spans", sp.serial_spans);
  const double wall = sp.run_wall_seconds;
  w.field("core_side_share", wall > 0.0 ? sp.serial_seconds / wall : 0.0);
  w.field("mem_side_share", wall > 0.0 ? sp.mem_serial_seconds / wall : 0.0);
  w.key("step_shares");
  w.begin_object();
  w.field("samples", sp.step_samples);
  w.field("sm_seconds", sp.sm_sample_seconds);
  w.field("icnt_seconds", sp.icnt_sample_seconds);
  w.field("partition_seconds", sp.partition_sample_seconds);
  w.end_object();
  w.key("zones");
  w.begin_array();
  for (const telemetry::SelfZoneNode& z : sp.zones) {
    w.begin_object();
    w.field("name", z.name);
    w.field("depth", static_cast<std::uint64_t>(z.depth));
    w.field("count", z.count);
    w.field("inclusive_seconds", z.inclusive_seconds);
    w.field("exclusive_seconds", z.exclusive_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void write_windows_section(telemetry::JsonWriter& w,
                           const telemetry::RunTelemetry& telemetry) {
  w.key("windows");
  w.begin_array();
  for (const auto& channel_series : telemetry.windows) {
    w.begin_array();
    for (const telemetry::WindowSample& s : channel_series) write_window(w, s);
    w.end_array();
  }
  w.end_array();
}

void write_stats_section(telemetry::JsonWriter& w,
                         const telemetry::TelemetryHub::Snapshot& s) {
  w.key("stats");
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : s.counters) w.field(name.c_str(), value);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : s.gauges) w.field(name.c_str(), value);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, buckets] : s.histograms) {
    w.key(name.c_str());
    w.begin_array();
    for (const std::uint64_t count : buckets) w.value(count);
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

void write_json_report(std::FILE* out, const RunMetrics& metrics,
                       const telemetry::RunTelemetry& telemetry) {
  telemetry::JsonWriter w(out);
  w.begin_object();
  write_metrics_section(w, metrics);

  w.key("profile");
  w.begin_object();
  w.field("setup_seconds", telemetry.profile.setup_seconds);
  w.field("run_seconds", telemetry.profile.run_seconds);
  w.field("collect_seconds", telemetry.profile.collect_seconds);
  w.field("core_cycles_per_second", telemetry.profile.core_cycles_per_second);
  w.end_object();

  if (telemetry.self_profile.enabled)
    write_self_profile_section(w, telemetry.self_profile);

  write_windows_section(w, telemetry);
  if (telemetry.lifecycle_enabled) write_lifecycle_section(w, telemetry.lifecycle);
  write_stats_section(w, telemetry.stats);
  w.end_object();
  std::fputc('\n', out);
}

bool write_json_report(const std::string& path, const RunMetrics& metrics,
                       const telemetry::RunTelemetry& telemetry) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    log_warn("cannot open JSON report file '%s'; report skipped", path.c_str());
    return false;
  }
  write_json_report(out, metrics, telemetry);
  std::fclose(out);
  return true;
}

}  // namespace lazydram::sim
