// Per-channel request-stream recorder for differential replay.
//
// The recorder captures exactly what the golden model needs to reproduce a
// channel's timeline:
//   * every arrival (coordinates + enqueue cycle + kind/approximability),
//   * every AMS drop and every drop-gate (a cycle where a bank's command-pass
//     decision was "drop", which in the optimized engine blocks that bank's
//     command for the cycle),
//   * the DMS delay timeline (the gate value can change every profiling
//     window under Dyn-DMS, so it is recorded as a change list),
//   * the observed per-request serve timeline (CAS + data-done cycles) that
//     the golden model's output is diffed against.
//
// Policy *decisions* (drops, delay values) are recorded as inputs rather than
// re-derived: adaptive policies depend on profiling state the golden model
// deliberately does not re-implement. What the golden model does re-derive —
// and therefore verifies — is all FR-FCFS selection and all bank/bus timing.
//
// Caveat: replay assumes arrivals become schedulable the cycle *after* their
// enqueue stamp, which holds for GpuTop-driven runs (the icnt delivers
// requests after mc->tick(t)). Direct-drive unit harnesses that enqueue at
// cycle t before ticking t violate this; use the checker there, not the
// golden model.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/scheme.hpp"
#include "mem/request.hpp"

namespace lazydram::check {

struct RecordedArrival {
  RequestId id = 0;
  BankId bank = 0;
  RowId row = kInvalidRow;
  Cycle enqueue_cycle = 0;
  bool is_read = true;
  bool approximable = false;
  TenantId tenant = 0;  ///< Owning client (selects the replayed delay cap).
  bool operator==(const RecordedArrival&) const = default;
};

struct RecordedServe {
  RequestId id = 0;
  Cycle cas_cycle = 0;   ///< Cycle the RD/WR command issued.
  Cycle done_cycle = 0;  ///< Cycle the data burst completed.
  bool operator==(const RecordedServe&) const = default;
};

struct RecordedDrop {
  RequestId id = 0;
  Cycle cycle = 0;
  bool operator==(const RecordedDrop&) const = default;
};

/// A command-pass cycle where the scheduler answered kDrop for `bank`: the
/// bank issues no command that cycle (the drop itself happened in the drop
/// pass, at most once per cycle).
struct RecordedGate {
  Cycle cycle = 0;
  BankId bank = 0;
  bool operator==(const RecordedGate&) const = default;
};

struct RecordedDelay {
  Cycle cycle = 0;  ///< First cycle the new value applies.
  Cycle delay = 0;
  bool operator==(const RecordedDelay&) const = default;
};

struct ChannelRecording {
  ChannelId channel = 0;
  bool dms_enabled = false;
  bool dms_delay_row_hits = false;
  /// Per-tenant DMS delay caps (kNeverCycle = uncapped); empty in
  /// single-tenant runs. Replay applies min(recorded delay, cap[tenant]).
  std::vector<Cycle> tenant_delay_caps;

  std::vector<RecordedArrival> arrivals;  ///< Arrival order.
  std::vector<RecordedServe> serves;
  std::vector<RecordedDrop> drops;
  std::vector<RecordedGate> drop_gates;
  std::vector<RecordedDelay> delay_changes;  ///< Deduplicated change list.
  Cycle last_cycle = 0;  ///< Latest cycle any event was observed at.
};

class ChannelRecorder {
 public:
  explicit ChannelRecorder(ChannelId channel) { rec_.channel = channel; }

  /// Captures the policy knobs replay must honor (DMS gating of misses, and
  /// of hits under the ablation).
  void set_spec(const core::SchemeSpec& spec) {
    rec_.dms_enabled = spec.dms_enabled;
    rec_.dms_delay_row_hits = spec.dms_delay_row_hits;
  }

  /// Captures the per-tenant DMS delay caps the run applies (resolved from
  /// SchemeParams::tenant_qos); replay clamps the recorded delay per tenant.
  void set_tenant_delay_caps(std::vector<Cycle> caps) {
    rec_.tenant_delay_caps = std::move(caps);
  }

  void on_enqueue(const MemRequest& req) {
    rec_.arrivals.push_back(RecordedArrival{req.id, req.loc.bank, req.loc.row,
                                            req.enqueue_cycle, req.is_read(),
                                            req.approximable, req.tenant});
    bump(req.enqueue_cycle);
  }

  void on_serve(RequestId id, Cycle cas_cycle, Cycle done_cycle) {
    rec_.serves.push_back(RecordedServe{id, cas_cycle, done_cycle});
    bump(done_cycle);
  }

  void on_drop(RequestId id, Cycle cycle) {
    rec_.drops.push_back(RecordedDrop{id, cycle});
    bump(cycle);
  }

  void on_drop_gate(BankId bank, Cycle cycle) {
    rec_.drop_gates.push_back(RecordedGate{cycle, bank});
    bump(cycle);
  }

  /// Called on attach and on every real tick with the scheduler's current DMS
  /// delay gauge; only value changes are stored. The delay changes only at a
  /// scheduler boundary, which is always ticked, so the list is the same
  /// whether or not the idle cycles between were skipped.
  void on_delay(Cycle cycle, Cycle delay) {
    if (rec_.delay_changes.empty() || rec_.delay_changes.back().delay != delay)
      rec_.delay_changes.push_back(RecordedDelay{cycle, delay});
  }

  const ChannelRecording& recording() const { return rec_; }

 private:
  void bump(Cycle c) { rec_.last_cycle = std::max(rec_.last_cycle, c); }

  ChannelRecording rec_;
};

}  // namespace lazydram::check
