#include "core/lazy_scheduler.hpp"

#include <algorithm>

#include "telemetry/hub.hpp"
#include "telemetry/lifecycle.hpp"

namespace lazydram::core {

LazyScheduler::LazyScheduler(const SchemeParams& params, const SchemeSpec& spec,
                             unsigned num_banks)
    : spec_(spec),
      dms_(params, spec.dms_dynamic, spec.dms_enabled ? spec.static_delay : 0),
      ams_(params, spec.ams_dynamic, spec.static_th_rbl),
      stalled_(num_banks, kNoStall),
      stall_begin_(num_banks, 0),
      stall_accounted_(num_banks, 0),
      bank_stall_cycles_(num_banks, 0) {}

Decision LazyScheduler::decide(const PendingQueue& queue, const BankView& bank,
                               Cycle now) {
  // 1. Row-buffer hits are served immediately (never delayed). The
  //    delay-all ablation gates them like misses, and a gated hit is a DMS
  //    stall like any other — it must show up in the stall trace.
  if (bank.row_open) {
    if (const MemRequest* hit = queue.oldest_for_row(bank.bank, bank.open_row)) {
      const Cycle hit_delay = effective_delay(hit->tenant);
      if (!spec_.dms_delay_row_hits || !spec_.dms_enabled ||
          now - hit->enqueue_cycle >= hit_delay) {
        // Close the stall only if it belongs to this hit: a different
        // stalled request (the bank's gated miss candidate) stays gated
        // while hits stream past it, so its interval must stay open.
        if (stalled_[bank.bank] == hit->id) trace_stall_end(bank.bank, now);
        // Stable: only a new request, a served or dropped one, a command to
        // the bank or a delay change can displace the oldest hit, and an
        // aged hit stays aged.
        return Decision::serve_stable(hit->id);
      }
      trace_stall_begin(bank.bank, hit->id, now, hit_delay);
      // The gate flips exactly at enqueue + delay; until then (and absent
      // queue/delay changes) this answer cannot change.
      return Decision::gated(hit->enqueue_cycle + hit_delay);
    }
  }

  // 2. Oldest request for this bank is the row-miss candidate.
  const MemRequest* cand = queue.oldest_for_bank(bank.bank);
  if (cand == nullptr) {
    trace_stall_end(bank.bank, now);
    return Decision::none();
  }

  const Cycle cand_delay = effective_delay(cand->tenant);
  if (spec_.dms_enabled && now - cand->enqueue_cycle < cand_delay) {
    trace_stall_begin(bank.bank, cand->id, now, cand_delay);
    // Age gate: kNone is stable until the candidate reaches enqueue + delay.
    return Decision::gated(cand->enqueue_cycle + cand_delay);
  }
  trace_stall_end(bank.bank, now);

  // 3. AMS drop decision (criteria 1, 3, 4; criterion 2 was the age gate).
  //    A serve that only lacks budget (warm-up, halt, coverage cap) may turn
  //    into a drop on any cycle, so it is not stable.
  if (spec_.ams_enabled && ams_.admits_row(queue, *cand)) {
    if (ams_.has_budget(cand->tenant)) return Decision::drop(cand->id);
    return Decision::serve(cand->id);
  }

  // 4. FR-FCFS service. The candidate stays the bank's oldest request, its
  //    age gate stays open and the row refusal (criterion 1 or 4) holds until
  //    the pending set or Th_RBL changes: stable.
  return Decision::serve_stable(cand->id);
}

void LazyScheduler::tick(Cycle now, std::uint64_t bus_busy_total) {
  // Credit AMS-dropped requests with the bus cycles they would have used:
  // otherwise the drop-induced traffic reduction reads as a delay-induced
  // BWUTIL loss and Dyn-DMS (whose baseline is sampled with AMS halted)
  // would collapse the delay to zero whenever both schemes co-run.
  const std::uint64_t adjusted =
      bus_busy_total + ams_.reads_dropped() * kBurstCyclesPerDrop;
  if (spec_.dms_enabled) dms_.tick(now, adjusted);
  if (spec_.ams_enabled) ams_.tick(now, spec_.dms_enabled && dms_.sampling());
  trace_now_ = now;
  ++ticks_;
  delay_sum_ += static_cast<double>(spec_.dms_enabled ? dms_.current_delay() : 0);
  th_rbl_sum_ += static_cast<double>(spec_.ams_enabled ? ams_.th_rbl() : 0);
}

Cycle LazyScheduler::next_tick_event(Cycle now) const {
  // The per-tick accumulators (ticks_, delay_sum_, th_rbl_sum_, trace_now_)
  // are reconstructed exactly by advance_idle, so the only events that force
  // a real tick are the units' adaptation boundaries. The AMS halt latch is
  // safe to skip between boundaries: `halted` is derived from dms_.sampling(),
  // which only changes at a DMS boundary — itself an event returned here.
  Cycle ev = kNeverCycle;
  if (spec_.dms_enabled) ev = std::min(ev, dms_.next_boundary());
  if (spec_.ams_enabled) ev = std::min(ev, ams_.next_boundary());
  return ev > now ? ev : now + 1;
}

void LazyScheduler::advance_idle(Cycle from, Cycle to) {
  // Bit-exact replay of (to - from) idle ticks: the delay and Th_RBL are
  // constant across the span (no unit boundary inside it, by contract), and
  // the sums stay integer-valued doubles, so bulk addition is exact.
  const std::uint64_t n = to - from;
  ticks_ += n;
  delay_sum_ += static_cast<double>(spec_.dms_enabled ? dms_.current_delay() : 0) *
                static_cast<double>(n);
  th_rbl_sum_ += static_cast<double>(spec_.ams_enabled ? ams_.th_rbl() : 0) *
                 static_cast<double>(n);
  trace_now_ = to;
}

void LazyScheduler::on_enqueue(const MemRequest& req) {
  if (req.is_read()) ams_.on_read_received(req.tenant);
}

void LazyScheduler::on_serve(const MemRequest& req) {
  // A stalled request can be served without another decide() on its bank
  // (e.g. it becomes a row hit after a drain re-opens its row); close the
  // stall here so the trace never leaks an open interval.
  if (stalled_[req.loc.bank] == req.id) trace_stall_end(req.loc.bank, trace_now_);
}

void LazyScheduler::on_drop(const MemRequest& req) {
  // The controller's row-group drain drops without consulting decide(), so
  // a stalled request swallowed by a drain is closed out here.
  if (stalled_[req.loc.bank] == req.id) trace_stall_end(req.loc.bank, trace_now_);
  ams_.on_drop(req.tenant);
}

void LazyScheduler::set_ams_ready(bool ready) { ams_.set_ready(ready); }

void LazyScheduler::set_tenant_qos(const std::vector<TenantQos>& qos) {
  ams_.set_tenant_qos(qos);
  delay_caps_.clear();
  for (const TenantQos& q : qos) delay_caps_.push_back(q.dms_delay_cap);
}

void LazyScheduler::set_telemetry(telemetry::Tracer* tracer, ChannelId channel) {
  tracer_ = tracer;
  channel_ = channel;
  dms_.set_telemetry(tracer, channel);
  ams_.set_telemetry(tracer, channel);
}

void LazyScheduler::trace_stall_begin(BankId bank, RequestId req, Cycle now, Cycle delay) {
  if (stalled_[bank] == req) return;
  // The bank's gated candidate can switch identity while the old one is
  // still queued (a gated row hit overtakes a gated miss candidate, or —
  // with per-tenant delay caps — tenants with different effective delays
  // alternate). Close the previous request's interval at `now` before
  // opening the new one, so stall_begin_/stall_accounted_ always describe
  // the request in stalled_; silently keeping the old interval open would
  // attribute the new request's gated cycles to the old id.
  if (stalled_[bank] != kNoStall) trace_stall_end(bank, now);
  stalled_[bank] = req;
  stall_begin_[bank] = now;
  stall_accounted_[bank] = now;
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->dms_stall_begin(now, channel_, bank, req, delay);
}

void LazyScheduler::trace_stall_end(BankId bank, Cycle now) {
  if (stalled_[bank] == kNoStall) return;
  const RequestId req = stalled_[bank];
  stalled_[bank] = kNoStall;
  bank_stall_cycles_[bank] += now - stall_accounted_[bank];
  if (tracer_ != nullptr && tracer_->enabled()) tracer_->dms_stall_end(now, channel_, bank);
  if (lifecycle_ != nullptr && now > stall_begin_[bank])
    lifecycle_->on_gate_end(req, stall_begin_[bank], now);
}

void LazyScheduler::harvest_bank_stalls(Cycle end, std::vector<std::uint64_t>& cum) {
  // Rebase open stalls so the per-window deltas telescope: the accounted
  // tail moves to `end` here, while stall_begin_ (the lifecycle interval's
  // true start) is untouched. Observational bookkeeping only.
  for (BankId b = 0; b < stalled_.size(); ++b) {
    if (stalled_[b] != kNoStall && end > stall_accounted_[b]) {
      bank_stall_cycles_[b] += end - stall_accounted_[b];
      stall_accounted_[b] = end;
    }
    cum[b] += bank_stall_cycles_[b];
  }
}

void LazyScheduler::fill_probe(telemetry::WindowProbe& probe) const {
  probe.dms_delay = spec_.dms_enabled ? dms_.current_delay() : 0;
  probe.th_rbl = spec_.ams_enabled ? ams_.th_rbl() : 0;
}

void LazyScheduler::register_stats(telemetry::TelemetryHub& hub,
                                   const std::string& prefix) const {
  hub.add_gauge(prefix + "dms.delay",
                [this] { return static_cast<double>(dms_.current_delay()); });
  hub.add_gauge(prefix + "dms.avg_delay", [this] { return average_delay(); });
  hub.add_gauge(prefix + "ams.th_rbl",
                [this] { return static_cast<double>(ams_.th_rbl()); });
  hub.add_gauge(prefix + "ams.avg_th_rbl", [this] { return average_th_rbl(); });
  hub.add_gauge(prefix + "ams.coverage", [this] { return ams_.coverage(); });
  hub.add_counter(prefix + "ams.reads_dropped", [this] { return ams_.reads_dropped(); });
}

}  // namespace lazydram::core
