// Per-channel memory controller: pending queue + command engine.
//
// Each memory cycle the controller
//   1. retires finished bursts into the reply queue,
//   2. lets the scheduler observe the cycle (profiling windows),
//   3. executes at most one AMS drop (requests removed without DRAM service;
//      a policy's drop admits a row group, whose rest the controller drains),
//   4. issues at most one DRAM command (shared command bus), chosen by asking
//      the scheduler, bank by bank in round-robin order, which request to
//      advance, and stepping that request through PRE -> ACT -> RD/WR.
//
// Row policy is open-row by default (rows stay open until a conflicting
// request needs the bank); kClosedRow eagerly precharges idle banks and is
// used only by ablation benches.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/address.hpp"
#include "dram/channel.hpp"
#include "mem/pending_queue.hpp"
#include "mem/request.hpp"
#include "mem/scheduler.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/window_sampler.hpp"

namespace lazydram {

namespace check {
class ProtocolChecker;
class ChannelRecorder;
}  // namespace check

namespace telemetry {
class LifecycleCollector;
}  // namespace telemetry

enum class RowPolicy { kOpenRow, kClosedRow };

class MemoryController {
 public:
  MemoryController(const GpuConfig& cfg, ChannelId id, const AddressMapper& mapper,
                   std::unique_ptr<Scheduler> scheduler,
                   RowPolicy row_policy = RowPolicy::kOpenRow);

  /// True if the pending queue can take one more request.
  bool can_accept() const { return !queue_.full(); }

  /// Enqueues a request (stamps enqueue_cycle and DRAM coordinates).
  /// Precondition: can_accept().
  void enqueue(MemRequest req, Cycle now_mem);

  void tick(Cycle now_mem);

  // --- Event-wheel horizons (GpuTop's fast-forwarding main loop) ---

  /// Earliest future memory cycle (> now) at which tick() could have any
  /// observable effect, assuming nothing external touches the controller in
  /// between (no enqueue, no reply pop — both end a skip anyway). All ticks
  /// in (now, next_event(now)) are provable no-ops except for per-tick
  /// bookkeeping that advance_idle() replays exactly. Returns now + 1
  /// whenever no cheap proof applies (closed-row ablation, an attached
  /// recorder, an active drain, ...): the conservative answer is
  /// always sound, it just disables skipping.
  Cycle next_event(Cycle now) const;

  /// Earliest future memory cycle (> now) at which this channel could emit
  /// something the rest of the system can observe: a reply becoming
  /// poppable. Lower-bounds the data return of any not-yet-issued CAS by
  /// cmd_wake_ (no command can issue while the pass is parked) plus
  /// tCL + tBURST. GpuTop's event wheel bounds each memory-only span by the
  /// minimum of this over all channels, so no SM can miss a wakeup.
  Cycle next_cross_event(Cycle now) const;

  /// Replays the ticks of the idle span (from, to] in one call: `from` is
  /// the last actually-ticked cycle, and next_event(from) must be > to.
  /// Bit-identical to ticking every cycle of the span: the scheduler and
  /// window sampler bulk-replay their per-tick accumulators; everything else
  /// (completion scan, checker starvation scan, drop/command passes) is a
  /// proven no-op inside the span.
  void advance_idle(Cycle from, Cycle to);

  /// Advances over memory cycles (from, to], `from` being the last cycle
  /// ticked or replayed: each cycle next_event() cannot prove idle is
  /// ticked, each maximal idle run is replayed by one advance_idle().
  /// Bit-identical to tick() on every cycle of the span. Returns the number
  /// of cycles actually ticked.
  std::uint64_t advance(Cycle from, Cycle to);

  /// Pops the next ready reply, if any became ready at or before `now_mem`.
  std::optional<MemReply> pop_reply(Cycle now_mem) {
    if (replies_.empty() || replies_.front().ready_cycle > now_mem) return std::nullopt;
    MemReply r = replies_.front();
    replies_.pop_front();
    return r;
  }

  /// True once every enqueued request has been served or dropped and all
  /// replies have been drained.
  bool idle() const { return queue_.empty() && inflight_.empty() && replies_.empty(); }

  // --- Introspection for metrics, tests and benches ---
  ChannelId id() const { return id_; }
  const dram::DramChannel& channel() const { return dram_; }
  const PendingQueue& queue() const { return queue_; }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }

  std::uint64_t reads_received() const { return reads_received_; }
  std::uint64_t writes_received() const { return writes_received_; }
  std::uint64_t reads_served() const { return reads_served_; }
  std::uint64_t writes_served() const { return writes_served_; }
  std::uint64_t reads_dropped() const { return reads_dropped_; }
  const Summary& read_latency() const { return read_latency_; }

  /// Read latency (enqueue -> data return, memory cycles) as a histogram;
  /// always on, feeds the run-level p50/p95/p99.
  const Histogram& read_latency_hist() const { return read_latency_hist_; }

  // --- Per-tenant accounting (active after enable_tenant_accounting) ---

  /// Sizes the per-tenant counters/latency histograms; requests then account
  /// under their MemRequest::tenant tag. Strictly observational.
  void enable_tenant_accounting(unsigned num_tenants);
  unsigned num_tenants() const { return static_cast<unsigned>(tenant_reads_served_.size()); }
  std::uint64_t tenant_reads_received(TenantId t) const { return tenant_reads_received_[t]; }
  std::uint64_t tenant_reads_served(TenantId t) const { return tenant_reads_served_[t]; }
  std::uint64_t tenant_reads_dropped(TenantId t) const { return tenant_reads_dropped_[t]; }
  /// Integer sum of (done - enqueue) over the tenant's served reads; with
  /// the histogram below it reconciles exactly against the aggregate.
  std::uint64_t tenant_read_latency_sum(TenantId t) const { return tenant_latency_sum_[t]; }
  const Histogram& tenant_read_latency_hist(TenantId t) const {
    return tenant_latency_hist_[t];
  }

  /// Ends the run: folds still-open rows into the RBL histograms and closes
  /// the sampler's final partial window.
  void finalize();

  // --- Telemetry (all optional; disabled costs one null check per tick) ---

  /// Routes row-activation and row-group-drop events through `tracer`
  /// (nullable to detach). Forwards to the window sampler when sampling is
  /// enabled, so a single call re-routes every controller-side event stream.
  void set_tracer(telemetry::Tracer* tracer) {
    tracer_ = tracer;
    if (sampler_ != nullptr) sampler_->set_tracer(tracer);
  }

  /// Starts per-window sampling of this channel (window in memory cycles).
  /// `tracer` may be null; samples are then only kept in memory. Windows
  /// carry per-bank columns (activations, column accesses, drops, DMS-stall
  /// cycles) harvested from the controller and the policy at window close.
  void enable_window_sampling(Cycle window, telemetry::Tracer* tracer);

  /// Attaches a request-lifecycle collector observing enqueue/CAS/data-
  /// return/drop boundaries (nullable to detach; never feeds back).
  void set_lifecycle(telemetry::LifecycleCollector* lifecycle) { lifecycle_ = lifecycle; }

  /// The window series recorded so far, or nullptr when sampling is off.
  const telemetry::WindowSampler* sampler() const { return sampler_.get(); }

  /// Snapshot of this channel's cumulative counters + policy gauges as of
  /// memory cycle `now` (only the power accountant's background-energy terms
  /// depend on it; pass the current cycle).
  telemetry::WindowProbe telemetry_probe(Cycle now) const;

  // --- Verification (optional observers; null costs one check per event) ---

  /// Attaches a protocol checker observing every enqueue/command/drop/tick
  /// (nullable to detach). The checker never feeds back into scheduling.
  void set_checker(check::ProtocolChecker* checker) { checker_ = checker; }

  /// Attaches a request-stream recorder for golden-model differential replay
  /// (nullable to detach).
  void set_recorder(check::ChannelRecorder* recorder) { recorder_ = recorder; }

  /// Test-only: feeds a command to the attached checker as if the engine had
  /// issued it, without touching the DRAM model. Lets tests prove that an
  /// illegal command is caught (there is no way to coax the real engine into
  /// issuing one).
  void inject_command_for_test(dram::CommandKind kind, BankId bank, RowId row,
                               Cycle now);

 private:
  struct InFlight {
    MemRequest req;
    Cycle done = 0;
  };

  /// Attempts one command step toward serving `req`; returns true if a DRAM
  /// command was issued this cycle. On failure, `retry_at` (if non-null)
  /// receives a lower bound on the cycle the blocked command could issue.
  bool advance_request(const MemRequest& req, Cycle now, Cycle* retry_at = nullptr);

  /// The decision for bank `b` at `now`, shared by the drop and command
  /// passes. While the bank's drain row group is all-approximable, the next
  /// drop of its oldest request; otherwise the drain (if any) retires and
  /// the policy decides.
  Decision decide(BankId b, Cycle now);

  /// True while the drop pass can find work: an active drain, or a policy
  /// that may admit a fresh drop.
  bool drops_live() const { return draining_ != 0 || scheduler_->may_drop(); }

  void complete_bursts(Cycle now);
  /// At most one AMS drop (see tick()).
  void run_drop_pass(Cycle now);
  /// Executes the drop of `id` from bank `b` and arms or continues the
  /// bank's row-group drain.
  void drop_request(BankId b, RequestId id, Cycle now);
  void issue_one_command(Cycle now);

  /// The later of bank `b`'s two memos: the command pass skips it until then.
  Cycle bank_memo(BankId b) const { return std::max(bank_retry_at_[b], bank_none_until_[b]); }
  /// Marks `b` memo-blocked after one of its memos was set past now.
  void block_bank(BankId b);
  /// Clears both memos of `b` (its pending set changed).
  void unblock_bank(BankId b);
  /// blocked_ with every bit whose memo has expired by `now` cleared. The
  /// expiry is lazy: the mask is only re-scanned once the earliest memo it
  /// holds falls due.
  std::uint64_t blocked_banks(Cycle now);

  /// Closed-row ablation: precharges `b` if its open row has no pending work
  /// left; returns true if the precharge issued (consuming the command bus).
  bool try_closed_row_precharge(BankId b, Cycle now);

  /// Cumulative channel counters shared by telemetry_probe() and the
  /// once-per-tick probe in tick(). Policy gauges are filled separately.
  void fill_channel_counters(telemetry::WindowProbe& p, Cycle now) const;

  /// Wires the sampler's per-tenant columns once both window sampling and
  /// tenant accounting are enabled (call-order independent).
  void attach_tenant_probe();

  ChannelId id_;
  const AddressMapper& mapper_;
  RowPolicy row_policy_;

  PendingQueue queue_;
  dram::DramChannel dram_;
  std::unique_ptr<Scheduler> scheduler_;

  std::vector<InFlight> inflight_;
  std::deque<MemReply> replies_;

  unsigned rr_bank_ = 0;
  /// Start bank of the AMS drop pass, rotated past each drop so concurrent
  /// row-group drains on different banks interleave fairly.
  unsigned drop_rr_bank_ = 0;
  unsigned num_banks_;
  /// One past the last ticked memory cycle; the power accountant and the
  /// sampler's final window both close here at finalize().
  Cycle end_mem_ = 0;
  /// nJ-per-cycle -> watts conversion (mem_clock_mhz * 1e-3).
  double watts_per_nj_per_cycle_;
  /// Per-bank row whose AMS row group is draining (kInvalidRow if none).
  /// Armed by an executed drop, retired lazily by decide() on the bank's next
  /// visit once the group empties or gains a non-approximable request.
  std::vector<RowId> drain_row_;
  /// Bit b is set iff drain_row_[b] is armed. While nonzero, even an empty
  /// queue leaves the drop pass work: retiring the drain.
  std::uint64_t draining_ = 0;
  /// Per-bank retry memo: the command pass skips a bank until this cycle
  /// after its chosen command failed legality (earliest_issue lower bound).
  /// Invalidated (set to 0) whenever the bank's pending set changes —
  /// enqueue or AMS drop — since that can change the scheduler's choice.
  std::vector<Cycle> bank_retry_at_;
  /// Per-bank decision-stability memo: the scheduler answered kNone with a
  /// Decision::none_until horizon (DMS age gate), so both passes skip the
  /// bank until then. Invalidated with bank_retry_at_, plus wholesale when
  /// the DMS delay changes (the horizon assumed it constant). Only honored
  /// under open-row policy, where a skipped decide() has no command to miss.
  std::vector<Cycle> bank_none_until_;
  /// Bit b is set iff bank_memo(b) > the current cycle, once expired bits
  /// are cleared (blocked_banks()). Every memo set past now sets its bit;
  /// every memo invalidation clears it.
  std::uint64_t blocked_ = 0;
  /// Earliest memo among the bits of blocked_ when it was last scanned (or
  /// set since): no bit can expire before it.
  Cycle blocked_expiry_ = kNeverCycle;
  /// Bit mask of every bank of the channel (the closed-row command pass
  /// visits them all).
  std::uint64_t all_banks_ = 0;
  /// DMS delay observed last tick (bank_none_until_ invalidation edge).
  Cycle last_dms_delay_ = 0;
  /// Whole-pass memos: when a full scan finds every non-empty bank blocked
  /// by a per-bank memo (and nothing issued/dropped), the pass itself is
  /// skipped until the earliest per-bank horizon. Invalidated together with
  /// the per-bank memos (enqueue, drop, DMS delay change); only ever set
  /// under open-row policy, so 0 elsewhere.
  Cycle cmd_wake_ = 0;
  Cycle drop_wake_ = 0;
  /// Earliest done-cycle among `inflight_` (kNeverCycle when empty); lets
  /// tick() skip the completion scan until a burst can actually retire.
  Cycle next_burst_done_ = kNeverCycle;

  std::uint64_t reads_received_ = 0;
  std::uint64_t writes_received_ = 0;
  std::uint64_t reads_served_ = 0;
  std::uint64_t writes_served_ = 0;
  std::uint64_t reads_dropped_ = 0;
  Summary read_latency_;
  Histogram read_latency_hist_{4096};

  /// Per-tenant slices of the read counters/latency above; all empty unless
  /// enable_tenant_accounting sized them. Sum over tenants == aggregate.
  std::vector<std::uint64_t> tenant_reads_received_;
  std::vector<std::uint64_t> tenant_reads_served_;
  std::vector<std::uint64_t> tenant_reads_dropped_;
  std::vector<std::uint64_t> tenant_latency_sum_;
  std::vector<Histogram> tenant_latency_hist_;

  /// Always-on per-bank cumulative command counters (one increment per
  /// issued ACT / column access / drop); the window sampler's bank probe
  /// differences them into per-window heatmap columns.
  std::vector<std::uint64_t> bank_acts_;
  std::vector<std::uint64_t> bank_cols_;
  std::vector<std::uint64_t> bank_drops_;
  std::vector<std::uint64_t> stall_scratch_;  ///< Bank-probe harvest buffer.

  telemetry::Tracer* tracer_ = nullptr;
  telemetry::LifecycleCollector* lifecycle_ = nullptr;  ///< Borrowed; null when off.
  std::unique_ptr<telemetry::WindowSampler> sampler_;

  check::ProtocolChecker* checker_ = nullptr;    ///< Borrowed; null when off.
  check::ChannelRecorder* recorder_ = nullptr;   ///< Borrowed; null when off.
};

}  // namespace lazydram
