#include "check/checker.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "telemetry/flight.hpp"

namespace lazydram::check {

namespace {

/// Mirrors the RD<->WR turnaround bubble in dram/channel.cpp. Kept as an
/// independent constant on purpose: the checker must not read the engine's
/// ledgers or share its helpers.
constexpr Cycle kTurnaround = 2;

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

}  // namespace

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kBankState: return "bank_state";
    case ViolationKind::kTRcd: return "tRCD";
    case ViolationKind::kTRp: return "tRP";
    case ViolationKind::kTRc: return "tRC";
    case ViolationKind::kTRas: return "tRAS";
    case ViolationKind::kTCcd: return "tCCD";
    case ViolationKind::kTRrd: return "tRRD";
    case ViolationKind::kTFaw: return "tFAW";
    case ViolationKind::kTWr: return "tWR";
    case ViolationKind::kTCdlr: return "tCDLR";
    case ViolationKind::kReadToPre: return "read_to_pre";
    case ViolationKind::kBusConflict: return "bus_conflict";
    case ViolationKind::kCommandBus: return "command_bus";
    case ViolationKind::kDropBus: return "drop_bus";
    case ViolationKind::kRowHitBypassed: return "row_hit_bypassed";
    case ViolationKind::kActWithoutWork: return "act_without_work";
    case ViolationKind::kDropNotApproximable: return "drop_not_approximable";
    case ViolationKind::kCoverageExceeded: return "coverage_exceeded";
    case ViolationKind::kStarvation: return "starvation";
  }
  LD_ASSERT_MSG(false, "unreachable");
  return "?";
}

ProtocolChecker::ProtocolChecker(const GpuConfig& cfg, ChannelId channel,
                                 const CheckerOptions& opts)
    : t_(cfg.timing),
      channel_(channel),
      groups_(cfg.bank_groups_per_channel),
      opts_(opts),
      banks_(cfg.banks_per_channel),
      group_cas_(cfg.bank_groups_per_channel, 0),
      tenant_reads_received_(opts.tenant_coverage_caps.size(), 0),
      tenant_reads_dropped_(opts.tenant_coverage_caps.size(), 0),
      drain_row_(cfg.banks_per_channel, kInvalidRow) {}

void ProtocolChecker::report(ViolationKind kind, Cycle cycle, std::int32_t bank,
                             std::string detail) {
  ++violation_count_;
  if (violations_.size() < opts_.max_recorded)
    violations_.push_back(Violation{kind, cycle, channel_, bank, detail});
  if (tracer_ != nullptr)
    tracer_->check_violation(cycle, channel_, bank, static_cast<unsigned>(kind));

  const std::string msg =
      fmt("protocol check [%s] ch%u bank %d cycle %" PRIu64 ": %s",
          violation_kind_name(kind), channel_, bank, cycle, detail.c_str());
  if (opts_.mode == CheckMode::kStrict) {
    // Leave forensics before unwinding: the flight rings already hold the
    // violation event (check_violation above) plus the last-K context.
    telemetry::FlightRecorder::dump_all("protocol_violation", msg);
    throw ViolationError(msg);
  }
  // Log mode: surface the first few, count the rest (a systematic bug would
  // otherwise flood stderr at one warning per memory cycle).
  if (logged_ < 16) {
    ++logged_;
    log_warn("%s%s", msg.c_str(),
             logged_ == 16 ? " (further violations counted, not logged)" : "");
  }
}

void ProtocolChecker::on_enqueue(const MemRequest& req, Cycle now) {
  (void)now;
  // Mirrors LazyScheduler::on_enqueue -> AmsUnit::on_read_received, so the
  // coverage comparison below uses arithmetically identical counters.
  if (req.is_read()) {
    ++reads_received_;
    if (req.tenant < tenant_reads_received_.size()) ++tenant_reads_received_[req.tenant];
  }
  // A non-approximable request (write *or* precise read) joining a draining
  // row group ends the drain: from here on, drops to this row need the full
  // new-group criteria again.
  if (!(req.is_read() && req.approximable) &&
      drain_row_[req.loc.bank] == req.loc.row)
    drain_row_[req.loc.bank] = kInvalidRow;
}

void ProtocolChecker::check_activate(ShadowBank& b, BankId bank, RowId row, Cycle now,
                                     const PendingQueue& queue) {
  const auto sbank = static_cast<std::int32_t>(bank);
  if (b.open_row != kInvalidRow)
    report(ViolationKind::kBankState, now, sbank,
           fmt("ACT while row %" PRIu64 " is open", b.open_row));
  if (now < b.act_after_rc)
    report(ViolationKind::kTRc, now, sbank,
           fmt("ACT at %" PRIu64 " < tRC bound %" PRIu64, now, b.act_after_rc));
  if (now < b.act_after_rp)
    report(ViolationKind::kTRp, now, sbank,
           fmt("ACT at %" PRIu64 " < tRP bound %" PRIu64, now, b.act_after_rp));
  if (now < act_after_rrd_)
    report(ViolationKind::kTRrd, now, sbank,
           fmt("ACT at %" PRIu64 " < tRRD bound %" PRIu64, now, act_after_rrd_));
  if (t_.tFAW > 0 && acts_in_ring_ >= 4) {
    const Cycle oldest = act_ring_[act_ring_pos_];
    if (now < oldest + t_.tFAW)
      report(ViolationKind::kTFaw, now, sbank,
             fmt("fifth ACT at %" PRIu64 " inside tFAW window starting %" PRIu64, now,
                 oldest));
  }
  if (queue.oldest_for_row(bank, row) == nullptr)
    report(ViolationKind::kActWithoutWork, now, sbank,
           fmt("ACT opened row %" PRIu64 " with no pending request for it", row));

  b.open_row = row;
  b.open_since = now;
  b.cas_after_rcd = std::max(b.cas_after_rcd, now + t_.tRCD);
  b.pre_after_ras = std::max(b.pre_after_ras, now + t_.tRAS);
  b.act_after_rc = std::max(b.act_after_rc, now + t_.tRC);
  act_after_rrd_ = std::max(act_after_rrd_, now + t_.tRRD);
  act_ring_[act_ring_pos_] = now;
  act_ring_pos_ = (act_ring_pos_ + 1) % 4;
  if (acts_in_ring_ < 4) ++acts_in_ring_;
}

void ProtocolChecker::check_precharge(ShadowBank& b, BankId bank, Cycle now,
                                      const PendingQueue& queue) {
  const auto sbank = static_cast<std::int32_t>(bank);
  if (b.open_row == kInvalidRow) {
    report(ViolationKind::kBankState, now, sbank, "PRE on a closed bank");
  } else {
    if (now < b.pre_after_ras)
      report(ViolationKind::kTRas, now, sbank,
             fmt("PRE at %" PRIu64 " < tRAS bound %" PRIu64, now, b.pre_after_ras));
    if (now < b.pre_after_rtp)
      report(ViolationKind::kReadToPre, now, sbank,
             fmt("PRE at %" PRIu64 " before read burst drained (bound %" PRIu64 ")", now,
                 b.pre_after_rtp));
    if (now < b.pre_after_wr)
      report(ViolationKind::kTWr, now, sbank,
             fmt("PRE at %" PRIu64 " < tWR bound %" PRIu64, now, b.pre_after_wr));
    if (opts_.hit_first && queue.oldest_for_row(bank, b.open_row) != nullptr)
      report(ViolationKind::kRowHitBypassed, now, sbank,
             fmt("PRE closed row %" PRIu64 " with request %" PRIu64 " pending for it",
                 b.open_row, queue.oldest_for_row(bank, b.open_row)->id));
  }
  if (b.open_row != kInvalidRow) b.active_cycles += now - b.open_since;
  b.open_row = kInvalidRow;
  b.act_after_rp = std::max(b.act_after_rp, now + t_.tRP);
}

std::uint64_t ProtocolChecker::shadow_active_cycles(BankId bank, Cycle end) const {
  const ShadowBank& b = banks_[bank];
  if (b.open_row == kInvalidRow) return b.active_cycles;
  return b.active_cycles + (end - b.open_since);
}

void ProtocolChecker::check_cas(ShadowBank& b, dram::CommandKind kind, BankId bank,
                                RowId row, Cycle now) {
  const auto sbank = static_cast<std::int32_t>(bank);
  const bool is_write = kind == dram::CommandKind::kWrite;
  const char* name = is_write ? "WR" : "RD";

  if (b.open_row == kInvalidRow)
    report(ViolationKind::kBankState, now, sbank, fmt("%s on a closed bank", name));
  else if (b.open_row != row)
    report(ViolationKind::kBankState, now, sbank,
           fmt("%s to row %" PRIu64 " while row %" PRIu64 " is open", name, row,
               b.open_row));
  if (now < b.cas_after_rcd)
    report(ViolationKind::kTRcd, now, sbank,
           fmt("%s at %" PRIu64 " < tRCD bound %" PRIu64, name, now, b.cas_after_rcd));
  if (now < b.cas_after_ccd)
    report(ViolationKind::kTCcd, now, sbank,
           fmt("%s at %" PRIu64 " < bank tCCD bound %" PRIu64, name, now,
               b.cas_after_ccd));
  if (!is_write && now < b.rd_after_cdlr)
    report(ViolationKind::kTCdlr, now, sbank,
           fmt("RD at %" PRIu64 " < tCDLR bound %" PRIu64, now, b.rd_after_cdlr));
  const unsigned group = bank % groups_;
  if (now < group_cas_[group])
    report(ViolationKind::kTCcd, now, sbank,
           fmt("%s at %" PRIu64 " < group %u tCCD bound %" PRIu64, name, now, group,
               group_cas_[group]));

  const Cycle data_start = now + (is_write ? t_.tWL : t_.tCL);
  const Cycle needed =
      bus_free_at_ + (is_write != last_burst_was_write_ ? kTurnaround : 0);
  if (data_start < needed)
    report(ViolationKind::kBusConflict, now, sbank,
           fmt("%s data burst starts at %" PRIu64 " but the bus is busy until %" PRIu64,
               name, data_start, needed));

  const Cycle data_end = data_start + t_.tBURST;
  b.cas_after_ccd = std::max(b.cas_after_ccd, now + t_.tCCD);
  if (is_write) {
    b.rd_after_cdlr = std::max(b.rd_after_cdlr, data_end + t_.tCDLR);
    b.pre_after_wr = std::max(b.pre_after_wr, data_end + t_.tWR);
  } else {
    b.pre_after_rtp = std::max(b.pre_after_rtp, now + t_.tBURST);
  }
  group_cas_[group] = now + t_.tCCD;
  bus_free_at_ = data_end;
  last_burst_was_write_ = is_write;
}

void ProtocolChecker::on_command(dram::CommandKind kind, BankId bank, RowId row,
                                 Cycle now, const PendingQueue& queue) {
  ++commands_checked_;
  LD_ASSERT(bank < banks_.size());

  // Shared command bus: at most one command per channel per memory cycle,
  // at non-decreasing cycles.
  if (have_command_) {
    if (now < last_command_cycle_)
      report(ViolationKind::kCommandBus, now, static_cast<std::int32_t>(bank),
             fmt("command at %" PRIu64 " after one at %" PRIu64, now,
                 last_command_cycle_));
    else if (now == last_command_cycle_)
      report(ViolationKind::kCommandBus, now, static_cast<std::int32_t>(bank),
             "second command in one cycle");
  }
  have_command_ = true;
  last_command_cycle_ = now;

  // Any command to a bank means its AMS drain is over (the scheduler never
  // serves a bank mid-drain).
  drain_row_[bank] = kInvalidRow;

  ShadowBank& b = banks_[bank];
  switch (kind) {
    case dram::CommandKind::kActivate:
      check_activate(b, bank, row, now, queue);
      break;
    case dram::CommandKind::kPrecharge:
      check_precharge(b, bank, now, queue);
      break;
    case dram::CommandKind::kRead:
    case dram::CommandKind::kWrite:
      check_cas(b, kind, bank, row, now);
      break;
  }
}

void ProtocolChecker::on_drop(const MemRequest& req, Cycle now,
                              const PendingQueue& queue) {
  const BankId bank = req.loc.bank;
  const RowId row = req.loc.row;
  const auto sbank = static_cast<std::int32_t>(bank);

  if (!opts_.ams_allowed)
    report(ViolationKind::kDropNotApproximable, now, sbank,
           fmt("request %" PRIu64 " dropped by a scheme without AMS", req.id));
  if (!req.is_read() || !req.approximable)
    report(ViolationKind::kDropNotApproximable, now, sbank,
           fmt("dropped request %" PRIu64 " is %s", req.id,
               req.is_read() ? "a non-approximable read" : "a write"));

  // One drop per channel per cycle (drops use the reply path, not the DRAM
  // command bus, so a drop and a command may share a cycle — but never two
  // drops).
  if (have_drop_ && now == last_drop_cycle_)
    report(ViolationKind::kDropBus, now, sbank, "second drop in one cycle");
  have_drop_ = true;
  last_drop_cycle_ = now;

  const bool continuation = drain_row_[bank] == row;
  if (!continuation) {
    // New row-group drop: the cumulative coverage must be strictly below the
    // cap *before* this drop counts (AmsUnit::has_budget refuses at >=).
    const double coverage =
        reads_received_ == 0 ? 0.0
                             : static_cast<double>(reads_dropped_) /
                                   static_cast<double>(reads_received_);
    if (coverage >= opts_.coverage_cap)
      report(ViolationKind::kCoverageExceeded, now, sbank,
             fmt("new group drop at coverage %.4f >= cap %.4f (%" PRIu64 "/%" PRIu64 ")",
                 coverage, opts_.coverage_cap, reads_dropped_, reads_received_));
    // Per-tenant budget: the owning tenant's own coverage must also be below
    // its cap (mirrors AmsUnit::has_budget's tenant check exactly).
    if (req.tenant < opts_.tenant_coverage_caps.size()) {
      const std::uint64_t t_reads = tenant_reads_received_[req.tenant];
      const std::uint64_t t_drops = tenant_reads_dropped_[req.tenant];
      const double t_coverage =
          t_reads == 0 ? 0.0
                       : static_cast<double>(t_drops) / static_cast<double>(t_reads);
      if (t_coverage >= opts_.tenant_coverage_caps[req.tenant])
        report(ViolationKind::kCoverageExceeded, now, sbank,
               fmt("new group drop for tenant %u at its coverage %.4f >= cap %.4f "
                   "(%" PRIu64 "/%" PRIu64 ")",
                   req.tenant, t_coverage, opts_.tenant_coverage_caps[req.tenant],
                   t_drops, t_reads));
    }
    // The group is admitted as a whole, so it must be entirely approximable
    // reads at admission time.
    if (!queue.row_group_all_approximable(bank, row))
      report(ViolationKind::kDropNotApproximable, now, sbank,
             fmt("row %" PRIu64 " admitted for dropping with non-approximable members",
                 row));
  }

  (void)queue;
  ++reads_dropped_;
  if (req.tenant < tenant_reads_dropped_.size()) ++tenant_reads_dropped_[req.tenant];
  // The drain stays armed even when this drop empties the group: the
  // scheduler clears its drain state lazily (only when decide() next runs
  // for the bank and finds nothing left), so an approximable read arriving
  // for this row in the meantime re-enters the drain as a continuation.
  // We clear on the same observable events the scheduler's lazy clearing
  // implies: a command to the bank, or a non-approximable enqueue to the row.
  drain_row_[bank] = row;
}

void ProtocolChecker::on_tick(const PendingQueue& queue, Cycle now) {
  const MemRequest* oldest = queue.oldest();
  if (oldest == nullptr) return;
  if (now - oldest->enqueue_cycle <= opts_.starvation_bound) return;
  if (have_starved_ && last_starved_ == oldest->id) return;  // Report once.
  have_starved_ = true;
  last_starved_ = oldest->id;
  report(ViolationKind::kStarvation, now, static_cast<std::int32_t>(oldest->loc.bank),
         fmt("request %" PRIu64 " enqueued at %" PRIu64 " still pending after %" PRIu64
             " cycles (bound %" PRIu64 ")",
             oldest->id, oldest->enqueue_cycle, now - oldest->enqueue_cycle,
             opts_.starvation_bound));
}

}  // namespace lazydram::check
