#include "dram/channel.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lazydram::dram {

namespace {
/// Bus bubble inserted when consecutive bursts travel opposite directions.
constexpr Cycle kTurnaround = 2;
}  // namespace

DramChannel::DramChannel(const GpuConfig& cfg)
    : t_(cfg.timing),
      groups_(cfg.bank_groups_per_channel),
      next_cas_in_group_(cfg.bank_groups_per_channel, 0),
      energy_(cfg.energy),
      power_(cfg.energy, cfg.banks_per_channel) {
  banks_.reserve(cfg.banks_per_channel);
  for (unsigned b = 0; b < cfg.banks_per_channel; ++b) banks_.emplace_back(t_);
}

bool DramChannel::bus_available(CommandKind kind, Cycle now) const {
  const Cycle data_start =
      now + (kind == CommandKind::kRead ? t_.tCL : t_.tWL);
  const bool is_write = kind == CommandKind::kWrite;
  const Cycle needed =
      bus_free_at_ + (is_write != last_burst_was_write_ ? kTurnaround : 0);
  return data_start >= needed;
}

bool DramChannel::can_issue(CommandKind kind, BankId bank, Cycle now) const {
  LD_ASSERT(bank < banks_.size());
  const Bank& b = banks_[bank];
  switch (kind) {
    case CommandKind::kActivate:
      if (t_.tFAW > 0 && acts_in_window_ >= 4 &&
          now < act_window_[act_window_pos_] + t_.tFAW)
        return false;  // Fifth ACT inside the rolling four-activate window.
      return b.can_activate(now) && now >= next_act_any_bank_;
    case CommandKind::kPrecharge:
      return b.can_precharge(now);
    case CommandKind::kRead:
      return b.can_read(now) && now >= next_cas_in_group_[bank % groups_] &&
             bus_available(kind, now);
    case CommandKind::kWrite:
      return b.can_write(now) && now >= next_cas_in_group_[bank % groups_] &&
             bus_available(kind, now);
  }
  return false;
}

Cycle DramChannel::earliest_issue(CommandKind kind, BankId bank) const {
  LD_ASSERT(bank < banks_.size());
  const Bank& b = banks_[bank];
  switch (kind) {
    case CommandKind::kActivate: {
      Cycle at = std::max(b.next_activate_allowed(), next_act_any_bank_);
      if (t_.tFAW > 0 && acts_in_window_ >= 4)
        at = std::max(at, act_window_[act_window_pos_] + t_.tFAW);
      return at;
    }
    case CommandKind::kPrecharge:
      return b.next_precharge_allowed();
    case CommandKind::kRead: {
      Cycle at = std::max(b.next_read_allowed(), next_cas_in_group_[bank % groups_]);
      if (bus_free_at_ > t_.tCL) at = std::max(at, bus_free_at_ - t_.tCL);
      return at;
    }
    case CommandKind::kWrite: {
      Cycle at = std::max(b.next_write_allowed(), next_cas_in_group_[bank % groups_]);
      if (bus_free_at_ > t_.tWL) at = std::max(at, bus_free_at_ - t_.tWL);
      return at;
    }
  }
  return 0;
}

Cycle DramChannel::issue(CommandKind kind, BankId bank, RowId row, Cycle now) {
  LD_ASSERT_MSG(can_issue(kind, bank, now), "channel command issued while illegal");
  Bank& b = banks_[bank];
  switch (kind) {
    case CommandKind::kActivate:
      b.activate(row, now);
      next_act_any_bank_ = std::max(next_act_any_bank_, now + t_.tRRD);
      if (t_.tFAW > 0) {
        act_window_[act_window_pos_] = now;
        act_window_pos_ = (act_window_pos_ + 1) % 4;
        if (acts_in_window_ < 4) ++acts_in_window_;
      }
      energy_.on_activation();
      power_.on_activate(bank, now);
      return now;

    case CommandKind::kPrecharge: {
      const Bank::ClosedRow closed = b.precharge(now);
      // A row is only ever opened to serve at least one request, so a
      // zero-access close would indicate a controller bug.
      LD_ASSERT(closed.accesses > 0);
      rbl_all_.add(closed.accesses);
      if (closed.read_only) rbl_readonly_.add(closed.accesses);
      power_.on_precharge(bank, now);
      return now;
    }

    case CommandKind::kRead: {
      const Cycle done = b.read(now);
      next_cas_in_group_[bank % groups_] = now + t_.tCCD;
      bus_free_at_ = done;
      last_burst_was_write_ = false;
      bus_busy_cycles_ += t_.tBURST;
      energy_.on_read_access();
      power_.on_read(bank);
      return done;
    }

    case CommandKind::kWrite: {
      const Cycle done = b.write(now);
      next_cas_in_group_[bank % groups_] = now + t_.tCCD;
      bus_free_at_ = done;
      last_burst_was_write_ = true;
      bus_busy_cycles_ += t_.tBURST;
      energy_.on_write_access();
      power_.on_write(bank);
      return done;
    }
  }
  LD_ASSERT_MSG(false, "unreachable");
  return now;
}

void DramChannel::finalize_power(Cycle end) {
  if (power_.finalized()) return;
  power_.finalize(end);
  power_.verify_against(energy_);
}

void DramChannel::flush_open_rows() {
  for (Bank& b : banks_) {
    const Bank::ClosedRow closed = b.flush();
    if (closed.accesses == 0) continue;
    rbl_all_.add(closed.accesses);
    if (closed.read_only) rbl_readonly_.add(closed.accesses);
  }
}

}  // namespace lazydram::dram
