// One GDDR5 channel: the banks plus every channel-scope constraint.
//
// Channel-scope rules enforced here on top of the per-bank ledgers:
//  * one command per channel per memory cycle (shared command bus),
//  * tRRD between ACTs to different banks,
//  * tFAW: at most four ACTs per rolling tFAW window (when configured),
//  * tCCD between column accesses within the same bank group,
//  * exclusive data-bus occupancy of tBURST cycles per column access, with a
//    2-cycle bubble when the bus reverses direction (RD<->WR turnaround).
//
// The channel also owns the measurement hooks the paper's analysis needs:
// activation counts, RBL histograms (all rows, and read-only rows for AMS's
// Fig. 6 analysis), served-request counts, energy, and data-bus busy cycles
// (the BWUTIL numerator used by Dyn-DMS).
#pragma once

#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/address.hpp"
#include "dram/bank.hpp"
#include "dram/power.hpp"

namespace lazydram::dram {

enum class CommandKind { kActivate, kPrecharge, kRead, kWrite };

class DramChannel {
 public:
  explicit DramChannel(const GpuConfig& cfg);

  // --- Command legality & execution (now = memory-domain cycle) ---

  /// True if `kind` may issue to `bank` at `now` under bank + channel rules.
  /// The one-command-per-cycle rule is the caller's job (the controller
  /// issues at most one command per tick).
  bool can_issue(CommandKind kind, BankId bank, Cycle now) const;

  /// Lower bound on the earliest cycle `kind` could legally issue to `bank`
  /// given the *current* ledgers. Every timing gate only ratchets forward as
  /// later commands issue, so can_issue is guaranteed false strictly before
  /// the returned cycle — the controller skips blocked banks until then.
  /// (The RD<->WR turnaround bubble is deliberately excluded: it can only
  /// push the true earliest cycle later, keeping this a valid lower bound.)
  Cycle earliest_issue(CommandKind kind, BankId bank) const;

  /// Executes the command. For kRead/kWrite returns the cycle the data burst
  /// completes; for kActivate/kPrecharge returns `now`. `now` must be
  /// non-decreasing across calls (the controller issues in cycle order; the
  /// power accountant's channel aggregate relies on it).
  Cycle issue(CommandKind kind, BankId bank, RowId row, Cycle now);

  const Bank& bank(BankId b) const { return banks_[b]; }
  unsigned num_banks() const { return static_cast<unsigned>(banks_.size()); }

  /// Flushes all still-open rows into the RBL accounting (end of run).
  void flush_open_rows();

  /// Ends power accounting at cycle `end` (one past the last simulated
  /// memory cycle): closes residencies, asserts the residency-partition
  /// identity and reconciles the accountant against the EnergyMeter oracle.
  /// Call after flush_open_rows() (flushed rows close at `end`, not earlier —
  /// flush() issues no PRE); later calls are no-ops.
  void finalize_power(Cycle end);

  // --- Measurement ---
  std::uint64_t activations() const { return energy_.activations(); }
  const Histogram& rbl_histogram() const { return rbl_all_; }
  const Histogram& rbl_readonly_histogram() const { return rbl_readonly_; }
  const EnergyMeter& energy() const { return energy_; }
  /// The state-residency accountant (fed every issued command).
  const PowerAccountant& power() const { return power_; }
  std::uint64_t column_accesses() const {
    return energy_.read_accesses() + energy_.write_accesses();
  }
  /// Data-bus busy cycles since construction (BWUTIL numerator).
  std::uint64_t bus_busy_cycles() const { return bus_busy_cycles_; }

  /// The channel's timing parameters (read-only; fixed at construction).
  const DramTiming& timing() const { return t_; }

 private:
  bool bus_available(CommandKind kind, Cycle now) const;

  DramTiming t_;
  unsigned groups_;
  std::vector<Bank> banks_;

  Cycle next_act_any_bank_ = 0;          ///< tRRD gate.
  /// tFAW gate: cycles of the last four ACTs (rolling; unused when tFAW==0).
  Cycle act_window_[4] = {0, 0, 0, 0};
  unsigned act_window_pos_ = 0;
  unsigned acts_in_window_ = 0;
  std::vector<Cycle> next_cas_in_group_; ///< tCCD gate per bank group.
  Cycle bus_free_at_ = 0;                ///< First cycle the data bus is free.
  bool last_burst_was_write_ = false;

  EnergyMeter energy_;
  PowerAccountant power_;
  Histogram rbl_all_{64};
  Histogram rbl_readonly_{64};
  std::uint64_t bus_busy_cycles_ = 0;
};

}  // namespace lazydram::dram
