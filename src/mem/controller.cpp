#include "mem/controller.hpp"

#include <algorithm>
#include <bit>

#include "check/checker.hpp"
#include "check/recorder.hpp"
#include "common/assert.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/selfprof.hpp"

namespace lazydram {

using dram::CommandKind;

namespace {

std::uint64_t bank_bit(BankId b) { return std::uint64_t{1} << b; }

/// Calls `visit(b)` for each set bit of `mask` in round-robin order from
/// `start` (start, start + 1, ..., then the bits below start), until `visit`
/// returns false.
template <typename Visit>
void for_each_bank_from(std::uint64_t mask, unsigned start, Visit&& visit) {
  const std::uint64_t high = mask & (~std::uint64_t{0} << start);
  for (std::uint64_t bits : {high, mask & ~high})
    for (; bits != 0; bits &= bits - 1)
      if (!visit(static_cast<BankId>(std::countr_zero(bits)))) return;
}

}  // namespace

MemoryController::MemoryController(const GpuConfig& cfg, ChannelId id,
                                   const AddressMapper& mapper,
                                   std::unique_ptr<Scheduler> scheduler,
                                   RowPolicy row_policy)
    : id_(id),
      mapper_(mapper),
      row_policy_(row_policy),
      queue_(cfg.pending_queue_size, cfg.banks_per_channel),
      dram_(cfg),
      scheduler_(std::move(scheduler)),
      num_banks_(cfg.banks_per_channel),
      watts_per_nj_per_cycle_(static_cast<double>(cfg.mem_clock_mhz) * 1e-3),
      drain_row_(cfg.banks_per_channel, kInvalidRow),
      bank_retry_at_(cfg.banks_per_channel, 0),
      bank_none_until_(cfg.banks_per_channel, 0),
      stable_req_(cfg.banks_per_channel, kInvalidRequest),
      bank_acts_(cfg.banks_per_channel, 0),
      bank_cols_(cfg.banks_per_channel, 0),
      bank_drops_(cfg.banks_per_channel, 0) {
  LD_ASSERT(scheduler_ != nullptr);
  // queue_ has already checked num_banks_ <= 64, the width of the masks.
  all_banks_ = num_banks_ == 64 ? ~std::uint64_t{0} : bank_bit(num_banks_) - 1;
}

void MemoryController::enqueue(MemRequest req, Cycle now_mem) {
  LD_ASSERT_MSG(can_accept(), "enqueue into full pending queue");
  req.enqueue_cycle = now_mem;
  req.loc = mapper_.map(req.line_addr);
  LD_ASSERT_MSG(req.loc.channel == id_, "request routed to wrong channel");
  if (req.is_read()) {
    ++reads_received_;
    if (req.tenant < tenant_reads_received_.size()) ++tenant_reads_received_[req.tenant];
  } else {
    ++writes_received_;
  }
  scheduler_->on_enqueue(req);
  if (lifecycle_ != nullptr) lifecycle_->on_enqueue(req, id_, now_mem);
  if (checker_ != nullptr) checker_->on_enqueue(req, now_mem);
  if (recorder_ != nullptr) recorder_->on_enqueue(req);
  // An arrival can change the bank's decision; both memos are stale, and so
  // are the pass-level wakes aggregated from them.
  unblock_bank(req.loc.bank);
  queue_.push(std::move(req));
}

void MemoryController::block_bank(BankId b) {
  blocked_ |= bank_bit(b);
  blocked_expiry_ = std::min(blocked_expiry_, bank_memo(b));
}

void MemoryController::unblock_bank(BankId b) {
  bank_retry_at_[b] = 0;
  bank_none_until_[b] = 0;
  blocked_ &= ~bank_bit(b);
  stable_ &= ~bank_bit(b);
  cmd_wake_ = 0;
  drop_wake_ = 0;
}

std::uint64_t MemoryController::blocked_banks(Cycle now) {
  if (now >= blocked_expiry_) {
    blocked_expiry_ = kNeverCycle;
    for (std::uint64_t bits = blocked_; bits != 0; bits &= bits - 1) {
      const auto b = static_cast<BankId>(std::countr_zero(bits));
      if (bank_memo(b) <= now)
        blocked_ &= ~bank_bit(b);
      else
        blocked_expiry_ = std::min(blocked_expiry_, bank_memo(b));
    }
  }
  return blocked_;
}

void MemoryController::complete_bursts(Cycle now) {
  next_burst_done_ = kNeverCycle;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->done > now) {
      if (it->done < next_burst_done_) next_burst_done_ = it->done;
      ++it;
      continue;
    }
    if (it->req.is_read()) {
      ++reads_served_;
      read_latency_.add(static_cast<double>(it->done - it->req.enqueue_cycle));
      read_latency_hist_.add(it->done - it->req.enqueue_cycle);
      if (it->req.tenant < tenant_reads_served_.size()) {
        const TenantId t = it->req.tenant;
        ++tenant_reads_served_[t];
        tenant_latency_sum_[t] += it->done - it->req.enqueue_cycle;
        tenant_latency_hist_[t].add(it->done - it->req.enqueue_cycle);
      }
      if (lifecycle_ != nullptr) lifecycle_->on_data_return(it->req.id, it->done);
      replies_.push_back(MemReply{it->req.id, it->req.line_addr, it->req.src_sm,
                                  /*approximate=*/false, it->done});
    } else {
      ++writes_served_;
    }
    it = inflight_.erase(it);
  }
}

bool MemoryController::advance_request(const MemRequest& req, Cycle now,
                                       Cycle* retry_at) {
  const BankId b = req.loc.bank;
  const dram::Bank& bank = dram_.bank(b);

  if (bank.row_open() && bank.open_row() == req.loc.row) {
    const CommandKind cas = req.is_read() ? CommandKind::kRead : CommandKind::kWrite;
    if (!dram_.can_issue(cas, b, now)) {
      if (retry_at != nullptr) *retry_at = dram_.earliest_issue(cas, b);
      return false;
    }
    const Cycle done = dram_.issue(cas, b, req.loc.row, now);
    ++bank_cols_[b];
    if (checker_ != nullptr) checker_->on_command(cas, b, req.loc.row, now, queue_);
    MemRequest popped = queue_.erase(req.id);
    scheduler_->on_serve(popped);
    if (lifecycle_ != nullptr && popped.is_read()) lifecycle_->on_cas(popped.id, now);
    if (recorder_ != nullptr) recorder_->on_serve(popped.id, now, done);
    inflight_.push_back(InFlight{std::move(popped), done});
    if (done < next_burst_done_) next_burst_done_ = done;
    return true;
  }

  if (bank.row_open()) {
    // Demand precharge: the scheduler chose a request for another row.
    // (Hit-first policies only reach here with no pending hits; plain FCFS
    // may legitimately close a row that still has younger hits pending.)
    if (!dram_.can_issue(CommandKind::kPrecharge, b, now)) {
      if (retry_at != nullptr)
        *retry_at = dram_.earliest_issue(CommandKind::kPrecharge, b);
      return false;
    }
    dram_.issue(CommandKind::kPrecharge, b, kInvalidRow, now);
    if (checker_ != nullptr)
      checker_->on_command(CommandKind::kPrecharge, b, kInvalidRow, now, queue_);
    return true;
  }

  if (!dram_.can_issue(CommandKind::kActivate, b, now)) {
    if (retry_at != nullptr)
      *retry_at = dram_.earliest_issue(CommandKind::kActivate, b);
    return false;
  }
  dram_.issue(CommandKind::kActivate, b, req.loc.row, now);
  ++bank_acts_[b];
  if (checker_ != nullptr)
    checker_->on_command(CommandKind::kActivate, b, req.loc.row, now, queue_);
  if (tracer_ != nullptr) tracer_->row_activate(now, id_, b, req.loc.row);
  return true;
}

Decision MemoryController::decide(BankId b, Cycle now) {
  // A stable answer outlives the drain check below: it is only cached from
  // a policy answer, and the bank's next drop (the only way to arm a drain)
  // needs a kDrop answer, which a cached bank never gets to give.
  if ((stable_ & bank_bit(b)) != 0) {
    ++decisions_reused_;
    return Decision::serve(stable_req_[b]);
  }
  // Continue an admitted row-group drop, one request per cycle and without
  // the policy's age or coverage checks. A non-approximable request arriving
  // for the row mid-drain (a write OR a precise read) ends the drain: the
  // row will be activated for it anyway, so the remaining reads are served
  // normally. (Requiring only "all reads" here would hand a precise read a
  // predicted value; the protocol checker flags that as
  // kDropNotApproximable.)
  if (drain_row_[b] != kInvalidRow) {
    const RowId row = drain_row_[b];
    const MemRequest* r = queue_.oldest_for_row(b, row);
    if (r != nullptr && queue_.row_group_all_approximable(b, row))
      return Decision::drop(r->id);
    drain_row_[b] = kInvalidRow;
    draining_ &= ~bank_bit(b);
  }
  const dram::Bank& bank = dram_.bank(b);
  const Decision d =
      scheduler_->decide(queue_, BankView{b, bank.row_open(), bank.open_row()}, now);
  ++policy_decides_;
  LD_ASSERT_MSG(d.action != Decision::Action::kNone || d.req_id == kInvalidRequest,
                "kNone decision carries a request id (use none()/gated())");
  LD_ASSERT_MSG(!d.stable || d.action == Decision::Action::kServe,
                "only a kServe answer can be stable");
  if (d.stable && row_policy_ == RowPolicy::kOpenRow) {
    stable_ |= bank_bit(b);
    stable_req_[b] = d.req_id;
  }
  return d;
}

bool MemoryController::try_closed_row_precharge(BankId b, Cycle now) {
  const dram::Bank& bank = dram_.bank(b);
  if (!bank.row_open() || bank.open_row_accesses() == 0) return false;
  if (queue_.oldest_for_row(b, bank.open_row()) != nullptr) return false;
  if (!dram_.can_issue(CommandKind::kPrecharge, b, now)) return false;
  dram_.issue(CommandKind::kPrecharge, b, kInvalidRow, now);
  if (checker_ != nullptr)
    checker_->on_command(CommandKind::kPrecharge, b, kInvalidRow, now, queue_);
  rr_bank_ = (b + 1) % num_banks_;
  return true;
}

void MemoryController::issue_one_command(Cycle now) {
  // Candidate banks. An empty bank can yield no request command, so decide()
  // is not consulted for it (policies return kNone without side effects for
  // empty banks) — unless it still holds a drain: decide() retires the
  // exhausted drain, and deferring that retirement to the next drop pass
  // would let a same-row arrival join a drain this visit had already ended.
  // A bank whose memo has not expired is skipped too: the DRAM gates a failed
  // command waits on only move forward, a gated kNone holds until its
  // horizon, and both memos are invalidated whenever the bank's pending set
  // changes.
  // A bank holding a stable answer takes it from decide() without asking the
  // policy (see stable_).
  // Memos are only honored under open-row policy: a skipped decide() under
  // the closed-row ablation could miss an idle precharge, so that pass
  // visits every bank.
  const bool open_row = row_policy_ == RowPolicy::kOpenRow;
  std::uint64_t candidates = all_banks_;
  std::uint64_t blocked = 0;
  if (open_row) {
    const std::uint64_t nonempty = queue_.nonempty_banks();
    blocked = blocked_banks(now) & nonempty;
    candidates = (nonempty & ~blocked) | (draining_ & ~nonempty);
  }

  // Pass-level memo accounting: while the scan runs, record whether every
  // visited bank ended up blocked by a per-bank memo. If so, until a command
  // issues nothing moves the DRAM timing gates, so the pass is provably a
  // no-op until the earliest memo horizon and tick() skips it outright
  // (cmd_wake_).
  bool all_blocked = true;
  bool issued = false;
  for_each_bank_from(candidates, rr_bank_, [&](BankId b) {
    if (queue_.bank_size(b) == 0 && drain_row_[b] == kInvalidRow) {
      // Closed-row only: the one command an idle bank can take.
      issued = try_closed_row_precharge(b, now);
      return !issued;
    }

    const Decision d = decide(b, now);
    if (d.action == Decision::Action::kServe) {
      const dram::Bank& bank = dram_.bank(b);
      const MemRequest* req = queue_.find(d.req_id);
      LD_ASSERT_MSG(req != nullptr, "scheduler chose a request not in the queue");
      LD_ASSERT_MSG(req->loc.bank == b, "scheduler chose a request for another bank");
      // Activation commitment: policies with cross-bank ranking state (e.g. a
      // BLISS blacklist update landing between this bank's ACT and CAS) can
      // switch rows after an activation was already paid for. Closing a row
      // that never served an access wastes the ACT and trips the channel's
      // zero-access accounting invariant, so the engine first retires the
      // oldest pending request of the untouched open row; the policy's new
      // choice proceeds next cycle. Row-stable policies never take this path.
      if (bank.row_open() && bank.open_row_accesses() == 0 &&
          req->loc.row != bank.open_row()) {
        if (const MemRequest* sticky = queue_.oldest_for_row(b, bank.open_row()))
          req = sticky;
      }
      Cycle retry_at = 0;
      if (advance_request(*req, now, &retry_at)) {
        // The bank's row state moved: its stable answer may not hold.
        stable_ &= ~bank_bit(b);
        rr_bank_ = b + 1 == num_banks_ ? 0 : b + 1;
        issued = true;
        return false;
      }
      if (scheduler_->traits().memo_safe && retry_at > now) {
        bank_retry_at_[b] = retry_at;
        block_bank(b);
      } else {
        // No usable bound (e.g. a bus-turnaround bubble, which
        // earliest_issue() excludes): re-scan this bank every cycle.
        all_blocked = false;
      }
      return true;  // Command not legal this cycle; give other banks a chance.
    }

    if (scheduler_->traits().memo_safe && d.action == Decision::Action::kNone &&
        d.none_until > now) {
      bank_none_until_[b] = d.none_until;
      block_bank(b);
    } else {
      // kDrop gates and horizon-free kNone (drain retirement just ran) must
      // keep re-deciding every cycle.
      all_blocked = false;
    }

    // A kDrop answer in the command pass is a gate: the bank issues nothing
    // this cycle (the drop itself, if any, already ran in the drop pass).
    // Recorded so golden replay skips the bank at exactly this point.
    if (d.action == Decision::Action::kDrop && recorder_ != nullptr)
      recorder_->on_drop_gate(b, now);

    // Closed-row ablation: precharge banks left open with no work for the
    // open row. (Under open-row policy rows stay open until a conflict.)
    if (!open_row && try_closed_row_precharge(b, now)) {
      issued = true;
      return false;
    }
    return true;
  });
  if (issued || !open_row || !all_blocked) return;
  // Every bank with work is now memo-blocked: the ones skipped on entry and
  // the visited ones that just set a memo.
  Cycle wake = kNeverCycle;
  for (std::uint64_t bits = blocked | (blocked_ & candidates); bits != 0; bits &= bits - 1)
    wake = std::min(wake, bank_memo(static_cast<BankId>(std::countr_zero(bits))));
  if (wake != kNeverCycle) cmd_wake_ = wake;
}

void MemoryController::run_drop_pass(Cycle now) {
  // At most one AMS drop per cycle ("dropped sequentially in the following
  // memory cycles", Section IV-C). Drops use the reply path, not the DRAM
  // command bus, so a drop and a DRAM command can share a cycle. The scan
  // starts past the bank that dropped last (like rr_bank_ in the command
  // pass) so concurrent drains on different banks interleave their drops
  // instead of the lowest-numbered bank always finishing first. It visits
  // the banks with pending work or a drain to retire; the rest have nothing
  // to drop.
  //
  // drop_wake_: a completed scan in which every visited bank was (or just
  // became) age-gated proves the pass stays dropless until the earliest
  // gate horizon — no decide() can reach the AMS admission check before
  // then, so its time-varying state (coverage, Th_RBL, halted) cannot
  // matter. Never set while a drain is active (a draining bank decides
  // kDrop and clears the wake on execution) or after an early exit. For a
  // policy that never drops, drops_live() is false, so the pass visits no
  // bank and the wake stays 0.
  //
  // drops_live() can only change inside decide() (drain retirement, policy
  // state), so it is evaluated once up front and again after each decide().
  // The scan stops early when it turns false before the last position of
  // the round-robin order.
  //
  // A bank holding a stable answer (stable_) is skipped: it answers kServe,
  // and deciding it cannot end the scan (it has no drain to retire). A
  // kServe keeps the pass from proving itself dropless, so any skipped bank
  // still vetoes drop_wake_, exactly as its visit would have.
  if (!drops_live()) return;
  const bool open_row = row_policy_ == RowPolicy::kOpenRow;
  const BankId last = drop_rr_bank_ == 0 ? num_banks_ - 1 : drop_rr_bank_ - 1;
  const std::uint64_t visit = queue_.nonempty_banks() | draining_;
  bool complete = true;
  bool all_gated = (visit & stable_) == 0;
  Cycle min_wake = kNeverCycle;
  for_each_bank_from(visit & ~stable_, drop_rr_bank_, [&](BankId b) {
    if (open_row && now < bank_none_until_[b]) {
      min_wake = std::min(min_wake, bank_none_until_[b]);
      return true;  // Age-gated: decide() is provably still kNone.
    }
    const Decision d = decide(b, now);
    if (d.action == Decision::Action::kDrop) {
      drop_request(b, d.req_id, now);
      complete = false;
      return false;
    }
    if (scheduler_->traits().memo_safe && d.action == Decision::Action::kNone &&
        d.none_until > now) {
      bank_none_until_[b] = d.none_until;
      block_bank(b);
      min_wake = std::min(min_wake, d.none_until);
    } else {
      all_gated = false;  // kServe / drain retirement: re-decide next cycle.
    }
    if (drops_live()) return true;
    complete = b == last;
    return false;
  });
  if (open_row && complete && all_gated && min_wake != kNeverCycle) drop_wake_ = min_wake;
}

void MemoryController::drop_request(BankId b, RequestId id, Cycle now) {
  if (checker_ != nullptr) {
    const MemRequest* victim = queue_.find(id);
    LD_ASSERT(victim != nullptr);
    checker_->on_drop(*victim, now, queue_);
  }
  MemRequest dropped = queue_.erase(id);
  LD_ASSERT_MSG(dropped.is_read(), "AMS must only drop reads");
  // The drop can change this bank's decision; both memos and the pass-level
  // wakes aggregated from them are stale.
  unblock_bank(b);
  ++reads_dropped_;
  ++bank_drops_[dropped.loc.bank];
  if (dropped.tenant < tenant_reads_dropped_.size()) ++tenant_reads_dropped_[dropped.tenant];
  scheduler_->on_drop(dropped);
  // The drop admits its whole row group: arm (or continue) the drain.
  if (drain_row_[b] == kInvalidRow) {
    drain_row_[b] = dropped.loc.row;
    draining_ |= bank_bit(b);
  }
  LD_ASSERT_MSG(drain_row_[b] == dropped.loc.row,
                "a bank can only drain one row group at a time");
  // After on_drop so the scheduler's stall closeout reaches the collector
  // before the record finalizes.
  if (lifecycle_ != nullptr) lifecycle_->on_drop(dropped.id, now);
  if (recorder_ != nullptr) recorder_->on_drop(dropped.id, now);
  if (tracer_ != nullptr)
    tracer_->row_group_drop(now, id_, dropped.loc.bank, dropped.loc.row, dropped.id);
  replies_.push_back(MemReply{dropped.id, dropped.line_addr, dropped.src_sm,
                              /*approximate=*/true, now});
  drop_rr_bank_ = b + 1 == num_banks_ ? 0 : b + 1;
}

void MemoryController::tick(Cycle now_mem) {
  end_mem_ = now_mem + 1;
  // Nothing in `inflight_` can retire before the tracked minimum done-cycle,
  // so until then the completion scan is a provable no-op.
  if (next_burst_done_ <= now_mem) complete_bursts(now_mem);
  scheduler_->tick(now_mem, dram_.bus_busy_cycles());
  if (checker_ != nullptr) checker_->on_tick(queue_, now_mem);

  // Policy gauges (DMS delay, Th_RBL) only change inside the scheduler tick
  // above, so one fill_probe serves the recorder — which needs the delay
  // current *at decision time* — the end-of-cycle sampler below, and the
  // memos' delay-change edge detection.
  telemetry::WindowProbe probe;
  scheduler_->fill_probe(probe);
  if (recorder_ != nullptr) recorder_->on_delay(now_mem, probe.dms_delay);

  // The none_until horizons assumed a constant DMS delay; drop them all on
  // a delay change (rare: at most once per profiling window). The retry
  // memos must go too: a retry horizon bounds when the bank's *chosen*
  // command becomes legal, but a delay change can un-gate a different
  // request (e.g. a younger row hit) whose command is legal immediately —
  // the choice the memo froze is stale, not just its timing.
  if (probe.dms_delay != last_dms_delay_) {
    last_dms_delay_ = probe.dms_delay;
    std::fill(bank_none_until_.begin(), bank_none_until_.end(), Cycle{0});
    std::fill(bank_retry_at_.begin(), bank_retry_at_.end(), Cycle{0});
    blocked_ = 0;
    blocked_expiry_ = kNeverCycle;
    cmd_wake_ = 0;
    drop_wake_ = 0;
    stable_ = 0;
  }
  // A Th_RBL change can turn a stable row refusal (AMS criterion 4) into a
  // drop. The memos above answer kNone or bound command timing, neither of
  // which reads Th_RBL, so only the stable answers go.
  if (probe.th_rbl != last_th_rbl_) {
    last_th_rbl_ = probe.th_rbl;
    stable_ = 0;
  }

  // Idle short-circuit: with no pending requests there is no request to
  // drop or advance, and under open-row policy no command to issue at all —
  // the whole per-bank machinery is skipped. The one empty-queue case with
  // drop-pass work is an active drain awaiting lazy retirement (the pass
  // must keep visiting that bank), hence draining_, not may_drop(): budget
  // headroom alone gives the pass nothing to visit.
  const bool idle_cycle =
      queue_.empty() && draining_ == 0 && row_policy_ == RowPolicy::kOpenRow;
  if (!idle_cycle) {
    if (now_mem >= drop_wake_) run_drop_pass(now_mem);
    if (now_mem >= cmd_wake_) issue_one_command(now_mem);
  }

  // The sampler observes the cycle last, so its probe reflects everything
  // issued up to and including `now_mem`. Read-only: cannot perturb the run.
  if (sampler_ != nullptr) {
    fill_channel_counters(probe, now_mem);
    sampler_->tick(now_mem, probe);
  }
}

Cycle MemoryController::next_event(Cycle now) const {
  // Conservative bail-out: the closed-row ablation issues idle precharges
  // from unmemoized banks, so every cycle must run for real.
  if (row_policy_ != RowPolicy::kOpenRow) return now + 1;

  // The passes first: on a busy cycle they answer now + 1 before any of the
  // horizons below is asked.
  Cycle ev = next_burst_done_;  // Completion scan has work at this cycle.
  if (queue_.empty()) {
    // The idle short-circuit skips both passes — unless a drain awaiting
    // lazy retirement keeps the drop pass visiting its bank (the visit
    // retires the drain, so that cycle is not a no-op). Budget headroom
    // alone (may_drop() on an empty queue) gives the pass nothing to visit
    // and stays skippable.
    if (draining_ != 0) return now + 1;
  } else {
    // The command pass is parked until cmd_wake_ (and the drop pass until
    // drop_wake_); a wake at or before `now` means the pass runs next cycle.
    if (cmd_wake_ <= now + 1) return now + 1;
    ev = std::min(ev, cmd_wake_);
    if (drops_live()) ev = std::min(ev, drop_wake_ > now ? drop_wake_ : now + 1);
  }
  if (ev <= now + 1) return now + 1;
  ev = std::min(ev, scheduler_->next_tick_event(now));
  if (checker_ != nullptr) ev = std::min(ev, checker_->next_tick_event(queue_, now));
  if (sampler_ != nullptr) ev = std::min(ev, sampler_->next_boundary());
  return ev > now ? ev : now + 1;
}

Cycle MemoryController::next_cross_event(Cycle now) const {
  Cycle ev = kNeverCycle;
  if (!replies_.empty()) {
    const Cycle ready = replies_.front().ready_cycle;
    ev = std::min(ev, ready > now ? ready : now + 1);
  }
  // A read burst becomes a poppable reply exactly at its done cycle (write
  // completions are not observable, so this is conservative but sound).
  ev = std::min(ev, next_burst_done_);
  if (!queue_.empty()) {
    // No command can issue before max(now + 1, cmd_wake_), and a read CAS at
    // cycle c returns data no earlier than c + tCL + tBURST. Drops create a
    // same-cycle reply, so their bound is the drop pass wake itself.
    const DramTiming& t = dram_.timing();
    const Cycle cas = cmd_wake_ > now ? cmd_wake_ : now + 1;
    ev = std::min(ev, cas + t.tCL + t.tBURST);
    if (drops_live()) ev = std::min(ev, drop_wake_ > now ? drop_wake_ : now + 1);
  }
  return ev > now ? ev : now + 1;
}

void MemoryController::advance_idle(Cycle from, Cycle to) {
  if (to <= from) return;
  // One past the last replayed cycle, same as tick(to) would leave it.
  end_mem_ = to + 1;
  scheduler_->advance_idle(from, to);
  if (sampler_ != nullptr) {
    // Only the gauge fields of intermediate probes are ever read (counters
    // are differenced at window closes, which never fall inside a skipped
    // span), and all gauges are constant across it.
    telemetry::WindowProbe probe;
    scheduler_->fill_probe(probe);
    probe.queue_size = queue_.size();
    sampler_->advance(to, to - from, probe);
  }
}

std::uint64_t MemoryController::advance(Cycle from, Cycle to) {
  std::uint64_t ticked = 0;
  for (Cycle m = from; m < to;) {
    const Cycle ev = next_event(m);
    if (ev > m + 1) {
      const Cycle idle_to = std::min(ev - 1, to);
      advance_idle(m, idle_to);
      m = idle_to;
      continue;
    }
    tick(++m);
    ++ticked;
  }
  return ticked;
}

void MemoryController::inject_command_for_test(dram::CommandKind kind, BankId bank,
                                               RowId row, Cycle now) {
  LD_ASSERT_MSG(checker_ != nullptr, "inject_command_for_test needs a checker");
  checker_->on_command(kind, bank, row, now, queue_);
}

void MemoryController::finalize() {
  LD_SELF_ZONE("mc.finalize");
  dram_.flush_open_rows();
  // The run ends one past the last ticked cycle — the same boundary the
  // sampler's flush closes its final window at (last_tick_ + 1).
  dram_.finalize_power(end_mem_);
  if (sampler_ != nullptr) sampler_->flush(telemetry_probe(end_mem_));
}

void MemoryController::set_recorder(check::ChannelRecorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) return;
  telemetry::WindowProbe probe;
  scheduler_->fill_probe(probe);
  recorder_->on_delay(end_mem_, probe.dms_delay);
}

void MemoryController::enable_tenant_accounting(unsigned num_tenants) {
  tenant_reads_received_.assign(num_tenants, 0);
  tenant_reads_served_.assign(num_tenants, 0);
  tenant_reads_dropped_.assign(num_tenants, 0);
  tenant_latency_sum_.assign(num_tenants, 0);
  tenant_latency_hist_.assign(num_tenants, Histogram{4096});
  attach_tenant_probe();
}

void MemoryController::attach_tenant_probe() {
  // Per-tenant window columns need both features on; enable_tenant_accounting
  // and enable_window_sampling can arrive in either order.
  if (sampler_ == nullptr || tenant_reads_served_.empty()) return;
  sampler_->set_tenant_probe(
      num_tenants(), [this](std::vector<telemetry::TenantProbe>& out) {
        for (std::size_t t = 0; t < out.size(); ++t) {
          out[t].reads_received = tenant_reads_received_[t];
          out[t].reads_served = tenant_reads_served_[t];
          out[t].drops = tenant_reads_dropped_[t];
        }
      });
}

void MemoryController::enable_window_sampling(Cycle window, telemetry::Tracer* tracer) {
  sampler_ = std::make_unique<telemetry::WindowSampler>(id_, window, tracer);
  sampler_->set_power_scale(watts_per_nj_per_cycle_);
  stall_scratch_.assign(num_banks_, 0);
  sampler_->set_bank_probe(
      num_banks_, [this](Cycle end, std::vector<telemetry::BankProbe>& out) {
        std::fill(stall_scratch_.begin(), stall_scratch_.end(), std::uint64_t{0});
        scheduler_->harvest_bank_stalls(end, stall_scratch_);
        const dram::PowerAccountant& pw = dram_.power();
        for (unsigned b = 0; b < num_banks_; ++b) {
          out[b].activations = bank_acts_[b];
          out[b].column_accesses = bank_cols_[b];
          out[b].drops = bank_drops_[b];
          out[b].stall_cycles = stall_scratch_[b];
          out[b].active_cycles = pw.bank_active_cycles(b, end);
          out[b].energy_nj = pw.bank_energy(b, end).total_nj();
        }
      });
  attach_tenant_probe();
}

void MemoryController::fill_channel_counters(telemetry::WindowProbe& p,
                                             Cycle now) const {
  p.bus_busy_cycles = dram_.bus_busy_cycles();
  p.activations = dram_.activations();
  p.column_reads = dram_.energy().read_accesses();
  p.column_writes = dram_.energy().write_accesses();
  p.reads_dropped = reads_dropped_;
  p.reads_received = reads_received_;
  // O(1): channel_energy never loops over banks.
  const dram::PowerBreakdown e = dram_.power().channel_energy(now);
  p.energy_row_nj = e.row_nj;
  p.energy_access_nj = e.access_nj;
  p.energy_background_nj = e.background_nj;
  p.energy_refresh_nj = e.refresh_nj;
  p.energy_nj = e.total_nj();
  p.queue_size = queue_.size();
}

telemetry::WindowProbe MemoryController::telemetry_probe(Cycle now) const {
  telemetry::WindowProbe p;
  fill_channel_counters(p, now);
  scheduler_->fill_probe(p);
  return p;
}

}  // namespace lazydram
