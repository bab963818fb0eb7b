// Per-channel windowed telemetry sampler, aligned to the same
// profile-window arithmetic the Dyn-DMS/Dyn-AMS controllers use (a window
// closes at the first tick with now - window_start >= window). The sampler
// is pull-based: once per memory cycle the owner hands it a WindowProbe of
// cumulative channel counters plus instantaneous gauges; the sampler
// differences the counters across window boundaries.
//
// Two invariants make the recorded series audit the end-of-run aggregates:
//   * sum over windows of every delta counter (bus_busy_cycles, activations,
//     drops, ...) telescopes to the run total, because flush() closes the
//     final partial window against the final cumulative probe;
//   * delay_sum/th_rbl_sum accumulate the same per-tick samples the
//     LazyScheduler averages, so sum(delay_sum)/sum(ticks) reproduces
//     average_delay() exactly.
#pragma once

#include <functional>
#include <vector>

#include "telemetry/trace.hpp"

namespace lazydram::telemetry {

/// Snapshot of one channel handed to the sampler each memory cycle.
/// Counter fields are cumulative since the start of the run; gauge fields
/// are the value at this cycle.
struct WindowProbe {
  // Cumulative counters.
  std::uint64_t bus_busy_cycles = 0;
  std::uint64_t activations = 0;
  std::uint64_t column_reads = 0;
  std::uint64_t column_writes = 0;
  std::uint64_t reads_dropped = 0;
  std::uint64_t reads_received = 0;
  /// Total DRAM energy. With the power accountant on this is the full
  /// state-based total (row + access + background + refresh) and the four
  /// component fields below decompose it; with accounting off it degrades
  /// to the EnergyMeter's row + access and the background/refresh
  /// components stay zero.
  double energy_nj = 0.0;
  double energy_row_nj = 0.0;
  double energy_access_nj = 0.0;
  double energy_background_nj = 0.0;
  double energy_refresh_nj = 0.0;

  // Instantaneous gauges.
  std::uint64_t queue_size = 0;
  Cycle dms_delay = 0;
  unsigned th_rbl = 0;
};

/// Per-bank cumulative counters collected by the bank probe (same
/// differencing discipline as WindowProbe, but pulled only at window close
/// so the per-tick path stays allocation-free).
struct BankProbe {
  std::uint64_t activations = 0;
  std::uint64_t column_accesses = 0;
  std::uint64_t drops = 0;
  std::uint64_t stall_cycles = 0;  ///< DMS age-gate cycles accumulated by the bank.
  std::uint64_t active_cycles = 0; ///< Cycles with a row open (power accountant).
  double energy_nj = 0.0;          ///< Total bank energy, all components.
};

/// Per-tenant cumulative counters collected by the tenant probe (same
/// differencing discipline as BankProbe; pulled only at window close).
struct TenantProbe {
  std::uint64_t reads_received = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t drops = 0;
};

class WindowSampler {
 public:
  /// Fills `out` (pre-sized to the bank count) with cumulative per-bank
  /// counters as of memory cycle `end`.
  using BankProbeFn = std::function<void(Cycle end, std::vector<BankProbe>& out)>;
  /// Fills `out` (pre-sized to the tenant count) with cumulative per-tenant
  /// counters.
  using TenantProbeFn = std::function<void(std::vector<TenantProbe>& out)>;

  /// `tracer` may be null (samples are then only kept in memory).
  WindowSampler(ChannelId channel, Cycle window, Tracer* tracer)
      : channel_(channel), window_(window), tracer_(tracer) {}

  /// Attaches per-bank columns: each closed window additionally carries a
  /// BankWindowSample per bank, differenced from `fn`'s cumulative counters.
  /// The probe runs only at window close, never per tick.
  void set_bank_probe(unsigned num_banks, BankProbeFn fn);

  /// Attaches per-tenant columns: each closed window additionally carries a
  /// TenantWindowSample per tenant (multi-tenant runs only).
  void set_tenant_probe(unsigned num_tenants, TenantProbeFn fn);

  /// Conversion factor from nJ-per-cycle to watts (mem_clock_mhz * 1e-3);
  /// closed windows then carry avg_power_w = energy_nj / ticks * scale.
  /// Unset (0) leaves avg_power_w at zero.
  void set_power_scale(double watts_per_nj_per_cycle) {
    power_scale_ = watts_per_nj_per_cycle;
  }

  /// Once per memory cycle, after the channel finished its work for `now`.
  void tick(Cycle now, const WindowProbe& probe);

  /// Bulk-replays `n` consecutive idle ticks ending at cycle `to`, all of
  /// which carry the same gauge values (`probe.dms_delay` / `th_rbl` /
  /// `queue_size` constant across the span — the event-wheel only skips
  /// spans where that provably holds) and none of which lands on or past the
  /// next window boundary (see next_boundary). Bit-identical to calling
  /// tick() n times: the counter fields of intermediate probes are never
  /// read (only the probe at a window close is), and the per-tick gauge sums
  /// are integer, so bulk addition is exact.
  void advance(Cycle to, std::uint64_t n, const WindowProbe& probe);

  /// First cycle whose tick may close a window: the end of the current
  /// profile-window grid slot. Conservative when the open window has no
  /// ticks yet (the close would actually wait one more tick) — a real tick
  /// executed at the boundary is always sound, just not always needed.
  Cycle next_boundary() const { return window_start_ + window_; }

  /// Re-routes closed windows through `tracer` (nullable to detach).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Closes the final partial window (if any ticks are pending) against the
  /// final cumulative counters. Call once at end of run.
  void flush(const WindowProbe& probe);

  const std::vector<WindowSample>& samples() const { return samples_; }
  Cycle window() const { return window_; }

 private:
  void close_window(Cycle end, const WindowProbe& probe);

  ChannelId channel_;
  Cycle window_;
  Tracer* tracer_;
  double power_scale_ = 0.0;  ///< nJ/cycle -> W; see set_power_scale.

  std::vector<WindowSample> samples_;

  BankProbeFn bank_probe_;
  std::vector<BankProbe> bank_scratch_;  ///< Cumulative counters at window close.
  std::vector<BankProbe> bank_base_;     ///< Cumulative counters at the last boundary.

  TenantProbeFn tenant_probe_;
  std::vector<TenantProbe> tenant_scratch_;
  std::vector<TenantProbe> tenant_base_;

  Cycle window_start_ = 0;
  Cycle last_tick_ = 0;
  WindowProbe at_window_start_{};  ///< Cumulative counters at the last boundary.

  // Per-tick accumulators for the open window.
  std::uint64_t ticks_ = 0;
  std::uint64_t delay_sum_ = 0;
  std::uint64_t th_rbl_sum_ = 0;
  std::uint64_t queue_sum_ = 0;
};

}  // namespace lazydram::telemetry
