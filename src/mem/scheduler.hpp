// Memory-scheduler policy interface.
//
// The MemoryController owns the command engine (PRE/ACT/RD/WR sequencing and
// timing legality); a Scheduler only answers the *policy* question: "which
// pending request should bank B work toward right now — or should one be
// dropped to the value predictor instead?". This split lets FR-FCFS, FCFS and
// the paper's lazy scheduler share one verified command engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/pending_queue.hpp"
#include "telemetry/window_sampler.hpp"

namespace lazydram {

namespace telemetry {
class TelemetryHub;
}

/// Snapshot of a bank's externally visible state.
struct BankView {
  BankId bank = 0;
  bool row_open = false;
  RowId open_row = kInvalidRow;
};

/// A scheduling decision for one bank at one memory cycle.
struct Decision {
  enum class Action : std::uint8_t {
    kNone,   ///< Nothing to do for this bank now (empty / gated by policy).
    kServe,  ///< Advance `req_id` toward service (PRE/ACT/RD/WR as needed).
    kDrop,   ///< Remove `req_id` from the queue; reply via the VP unit (AMS).
  };
  Action action = Action::kNone;
  /// Meaningful for kServe/kDrop only; kNone answers carry kInvalidRequest so
  /// an accidental dereference can never alias a live request (ids start at 1,
  /// but 0 was still a representable id — see the controller's LD_ASSERTs).
  RequestId req_id = kInvalidRequest;
  /// For kNone only: the policy guarantees the answer stays kNone until this
  /// cycle *provided* the bank's pending set and the policy's delay knobs do
  /// not change (the controller invalidates on either). 0 = no guarantee.
  Cycle none_until = 0;
  /// For kServe only: the policy guarantees the same answer on every later
  /// cycle *provided* the bank's pending set, its row state (no command
  /// issued to it) and the policy's DMS delay and Th_RBL do not change. The
  /// controller caches such an answer and invalidates it on any of those
  /// edges. An answer that could flip with time or with state outside the
  /// bank (a coverage budget, a halt) must not set it.
  bool stable = false;

  static Decision none() { return {}; }
  /// kNone with a stability horizon (see none_until).
  static Decision gated(Cycle until) { return {Action::kNone, kInvalidRequest, until}; }
  static Decision serve(RequestId id) { return {Action::kServe, id}; }
  /// kServe that holds until the bank's state changes (see stable).
  static Decision serve_stable(RequestId id) { return {Action::kServe, id, 0, true}; }
  static Decision drop(RequestId id) { return {Action::kDrop, id}; }
};

/// Static capabilities of a policy, fixed at construction and read back
/// through Scheduler::traits(): a policy cannot change them over its
/// lifetime. The controller's memos and the strict checker's hit-first rule
/// rely on that.
struct SchedulerTraits {
  /// True iff the policy never issues a PRE on a bank that still holds
  /// pending row hits for the open row. The strict protocol checker enforces
  /// hit-first ordering only when this holds; policies that deliberately
  /// close rows with hits outstanding (FCFS's strict age order, BLISS's
  /// blacklist ranking, batch-cap RR's rotation) set it false.
  bool hit_first = true;
  /// True iff a decide(queue, bank, now) answer can only change when that
  /// bank's pending set changes, the policy's delay knobs change, or its
  /// none_until horizon expires. The controller's retry/none_until memo
  /// layer is sound exactly under that assumption; policies with cross-bank
  /// coupling (BLISS: a serve on bank A can blacklist an SM and reorder bank
  /// B's candidates) set it false and run with memos disabled.
  bool memo_safe = true;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerTraits traits = {}) : traits_(traits) {}
  virtual ~Scheduler() = default;

  const SchedulerTraits& traits() const { return traits_; }

  /// Policy decision for `bank` at memory cycle `now`. Must be free of
  /// observable side effects: the controller may call it more than once per
  /// cycle per bank (in the drop pass and again in the command pass) — and,
  /// symmetrically, may skip it: for a bank with no pending work, for a bank
  /// whose memo (none_until, a retry horizon) still holds, and, under
  /// open-row policy, for a bank whose last answer was a stable kServe (the
  /// drop pass skips the bank and the command pass reuses the answer). So a
  /// policy must not rely on decide() running every cycle for every
  /// bank. A kDrop answer admits the victim's whole row group: the
  /// controller drops the group's remaining members one per cycle without
  /// asking the policy again, until the group empties or gains a
  /// non-approximable request.
  virtual Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) = 0;

  /// Cheap pre-check: can this policy answer kDrop right now? The controller
  /// runs its drop pass only while this holds or a row-group drain is
  /// active; policies that never drop keep the default and never pay for
  /// the pass.
  virtual bool may_drop() const { return false; }

  /// Called once per memory cycle before any decide(); `bus_busy_total` is
  /// the channel's cumulative data-bus busy cycle count (BWUTIL numerator).
  virtual void tick(Cycle now, std::uint64_t bus_busy_total) {
    (void)now;
    (void)bus_busy_total;
  }

  /// Earliest future memory cycle (> now) at which tick() has an observable
  /// effect *assuming the channel stays idle* (no enqueues, serves, drops or
  /// bus activity in between). The event-wheel main loop uses this to bulk-
  /// skip quiet spans: a policy whose tick mutates time-varying state (DMS /
  /// AMS window boundaries, a blacklist clearing interval) must return its
  /// next boundary; policies whose tick is a no-op (or whose per-tick state
  /// is reconstructed exactly by advance_idle) return kNeverCycle. The
  /// conservative default — "every cycle matters" — is always sound.
  virtual Cycle next_tick_event(Cycle now) const { return now + 1; }

  /// Replays the effect of tick() for the idle span (from, to] in one call:
  /// after advance_idle(from, to) the policy's observable state (probes,
  /// stats, subsequent decisions) must be bit-identical to having called
  /// tick(m, bus_busy) for every m in (from, to] with an unchanged channel.
  /// Only invoked when next_tick_event(from) > to, so no window boundary or
  /// other self-scheduled event falls inside the span. Stateless-per-tick
  /// policies need nothing.
  virtual void advance_idle(Cycle from, Cycle to) {
    (void)from;
    (void)to;
  }

  /// Notification: a request entered the pending queue.
  virtual void on_enqueue(const MemRequest& req) { (void)req; }

  /// Notification: a request left the queue because its column access issued.
  virtual void on_serve(const MemRequest& req) { (void)req; }

  /// Notification: a request left the queue because AMS dropped it.
  virtual void on_drop(const MemRequest& req) { (void)req; }

  /// Contributes policy-side gauges (DMS delay, Th_RBL, ...) to a windowed
  /// telemetry probe. Plain policies have nothing to add.
  virtual void fill_probe(telemetry::WindowProbe& probe) const { (void)probe; }

  /// Registers policy-owned stats (counters/gauges reading this scheduler's
  /// internal state) with the stat registry under `prefix` (e.g. "core.ch0.").
  /// Called once after construction; the scheduler must outlive the hub's
  /// snapshots. Stateless policies register nothing.
  virtual void register_stats(telemetry::TelemetryHub& hub, const std::string& prefix) const {
    (void)hub;
    (void)prefix;
  }

  /// Adds the policy's cumulative per-bank DMS-stall cycles as of memory
  /// cycle `end` into `cum` (pre-zeroed, sized to the bank count). The
  /// default policy has no stalls and leaves the zeros. Observational only:
  /// implementations may rebase internal bookkeeping but must never let this
  /// affect scheduling decisions.
  virtual void harvest_bank_stalls(Cycle end, std::vector<std::uint64_t>& cum) {
    (void)end;
    (void)cum;
  }

 private:
  SchedulerTraits traits_;
};

}  // namespace lazydram
