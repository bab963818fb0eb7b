// The lazy memory scheduler (Section IV): FR-FCFS extended with the DMS and
// AMS units. With both units disabled it is bit-identical to the baseline
// FR-FCFS policy (verified by tests), so one scheduler class realizes all
// seven schemes of Fig. 12.
//
// Decision order per bank:
//   1. Row-buffer hit candidates are served immediately — DMS never delays
//      hits ("each request that does not lead to a row hit is delayed").
//   2. Otherwise the bank's oldest request is the candidate; it may proceed
//      only once it has aged >= the DMS delay.
//   3. An aged candidate is offered to the AMS unit; if all drop criteria
//      hold, it is dropped. That admits its whole pending row group: the
//      MemoryController drains the rest to the VP unit one per cycle,
//      bypassing age and coverage, without consulting this policy.
//   4. Otherwise it is served (PRE/ACT as needed) per FR-FCFS.
// A served hit (1) and a serve that AMS refused on the row itself (criterion
// 1 or 4, or AMS off) are marked Decision::stable: they hold until the
// bank's state, the delay or Th_RBL changes. A serve that only lacked drop
// budget is not.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/ams.hpp"
#include "core/dms.hpp"
#include "core/scheme.hpp"
#include "mem/scheduler.hpp"

namespace lazydram::telemetry {
class LifecycleCollector;
}

namespace lazydram::core {

class LazyScheduler : public Scheduler {
 public:
  LazyScheduler(const SchemeParams& params, const SchemeSpec& spec, unsigned num_banks);

  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override;
  void tick(Cycle now, std::uint64_t bus_busy_total) override;
  Cycle next_tick_event(Cycle now) const override;
  void advance_idle(Cycle from, Cycle to) override;
  bool may_drop() const override { return spec_.ams_enabled && ams_.may_drop(); }
  void on_enqueue(const MemRequest& req) override;
  void on_serve(const MemRequest& req) override;
  void on_drop(const MemRequest& req) override;

  /// L2 warm-up gate for the AMS unit (set by the owning memory partition).
  void set_ams_ready(bool ready);

  /// Partitions the error-tolerance budgets per tenant: each client's AMS
  /// coverage cap becomes its own budget (forwarded to the AmsUnit) and its
  /// DMS aging delay is clamped to qos[t].dms_delay_cap — a request's
  /// effective delay is min(global delay, its tenant's cap). Caps are static
  /// for a run, so the gated() horizon/memo contract is unchanged: the
  /// effective delay only moves when the global delay moves. An empty vector
  /// (the default) keeps the legacy global budgets bit-identically.
  void set_tenant_qos(const std::vector<TenantQos>& qos);

  /// Routes DMS-stall, delay-change and Th_RBL-change events through
  /// `tracer` (nullable to detach). Tracing never feeds back into
  /// scheduling decisions, so enabling it cannot perturb a run.
  void set_telemetry(telemetry::Tracer* tracer, ChannelId channel);

  /// Reports closed DMS age-gate intervals to the lifecycle collector
  /// (nullable to detach). Observational only, like set_telemetry.
  void set_lifecycle(telemetry::LifecycleCollector* lifecycle) { lifecycle_ = lifecycle; }

  void fill_probe(telemetry::WindowProbe& probe) const override;
  void register_stats(telemetry::TelemetryHub& hub, const std::string& prefix) const override;
  void harvest_bank_stalls(Cycle end, std::vector<std::uint64_t>& cum) override;

  const SchemeSpec& spec() const { return spec_; }
  const DmsUnit& dms() const { return dms_; }
  const AmsUnit& ams() const { return ams_; }

  /// Time-weighted average DMS delay over the run (benches report this).
  double average_delay() const {
    return ticks_ == 0 ? 0.0 : delay_sum_ / static_cast<double>(ticks_);
  }
  /// Time-weighted average Th_RBL over the run.
  double average_th_rbl() const {
    return ticks_ == 0 ? 0.0 : th_rbl_sum_ / static_cast<double>(ticks_);
  }

 private:
  void trace_stall_begin(BankId bank, RequestId req, Cycle now, Cycle delay);
  void trace_stall_end(BankId bank, Cycle now);

  /// DMS delay applied to `tenant`'s requests: the global (possibly
  /// dynamic) delay clamped to the tenant's cap when tenancy is configured.
  Cycle effective_delay(TenantId tenant) const {
    const Cycle d = dms_.current_delay();
    if (tenant < delay_caps_.size() && delay_caps_[tenant] < d)
      return delay_caps_[tenant];
    return d;
  }

  SchemeSpec spec_;
  DmsUnit dms_;
  AmsUnit ams_;

  /// Per-tenant DMS delay caps (kNeverCycle = uncapped); empty unless
  /// set_tenant_qos configured tenancy.
  std::vector<Cycle> delay_caps_;

  /// Bus cycles one 128B transaction occupies (tBURST); used to credit
  /// dropped requests in the Dyn-DMS BWUTIL comparison.
  static constexpr std::uint64_t kBurstCyclesPerDrop = 4;

  std::uint64_t ticks_ = 0;
  double delay_sum_ = 0.0;
  double th_rbl_sum_ = 0.0;

  telemetry::Tracer* tracer_ = nullptr;
  ChannelId channel_ = 0;
  telemetry::LifecycleCollector* lifecycle_ = nullptr;
  /// No-stall sentinel for `stalled_` (same all-ones pattern as the global
  /// invalid-request sentinel).
  static constexpr RequestId kNoStall = kInvalidRequest;
  /// Per-bank id of the currently age-gated request (kNoStall if none), for
  /// stall begin/end events. Tracking the id — not just a flag — lets
  /// on_serve/on_drop close a stall whose request leaves the queue without a
  /// further decide() on its bank. Never consulted for decisions.
  std::vector<RequestId> stalled_;
  /// Cycle the open stall of each bank began (lifecycle gate intervals).
  std::vector<Cycle> stall_begin_;
  /// Start of the open stall's not-yet-accounted tail. Identical to
  /// stall_begin_ except after harvest_bank_stalls() rebases it at a window
  /// boundary, so bank_stall_cycles_ telescopes across windows while the
  /// lifecycle interval keeps its true begin.
  std::vector<Cycle> stall_accounted_;
  /// Cumulative per-bank DMS-stall cycles (the windowed bank probe).
  std::vector<std::uint64_t> bank_stall_cycles_;
  /// Cycle of the most recent tick(); timestamps stall-end events emitted
  /// from on_serve/on_drop, which carry no cycle of their own.
  Cycle trace_now_ = 0;
};

}  // namespace lazydram::core
