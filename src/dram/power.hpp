// State-based DRAM power accounting (DRAMPower/GPUWattch-style).
//
// Two accountants coexist, one checking the other:
//
//  * EnergyMeter — the original 3-counter event meter (activations, reads,
//    writes x nJ constants). Kept as the *oracle*: its arithmetic is trivial
//    enough to audit by eye, so the state machine below is reconciled
//    against it at finalize time.
//  * PowerAccountant — a per-bank state-residency machine fed the same
//    command stream the protocol checker observes (one on_* call per issued
//    ACT/PRE/RD/WR). It integrates
//      (a) per-command energies (row energy booked at ACT, access energy at
//          RD/WR — identical bookings to EnergyMeter),
//      (b) background power over exact per-bank state residencies: every
//          bank is either *active* (a row is open: active-standby power) or
//          *precharged* (precharge-standby power), and the two residencies
//          partition elapsed cycles — the energy analog of the lifecycle
//          collector's phase-partition identity, asserted at finalize,
//      (c) periodic refresh energy, modeled analytically from elapsed time
//          (one all-bank refresh burst every tREFI cycles). No REF command
//          exists in the timing model, so refresh is energy-only and can
//          never perturb simulated results.
//
// Observability discipline: every DramChannel owns one, and it is strictly
// passive: it mutates nothing the command engine reads. Finalize reconciles
// it against the EnergyMeter oracle, and the protocol checker's shadow
// banks witness its residencies (PowerControllerTest.ResidenciesMatchCheckerShadow).
//
// Complexity: O(1) per command, O(1) per channel-level query (a lazy
// channel aggregate tracks active bank-cycles incrementally), O(1) per
// per-bank query. Nothing here runs per tick.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace lazydram {

/// The original event-counting energy meter, now serving as the cross-check
/// oracle for PowerAccountant (see file comment).
class EnergyMeter {
 public:
  explicit EnergyMeter(const EnergyParams& params) : params_(params) {}

  void on_activation() { ++activations_; }
  void on_read_access() { ++reads_; }
  void on_write_access() { ++writes_; }

  std::uint64_t activations() const { return activations_; }
  std::uint64_t read_accesses() const { return reads_; }
  std::uint64_t write_accesses() const { return writes_; }

  double row_energy_nj() const {
    return static_cast<double>(activations_) * params_.row_energy_per_act_nj();
  }
  double access_energy_nj() const {
    return static_cast<double>(reads_) * params_.rd_access_nj +
           static_cast<double>(writes_) * params_.wr_access_nj;
  }
  double total_energy_nj() const { return row_energy_nj() + access_energy_nj(); }

  void reset() { activations_ = reads_ = writes_ = 0; }

 private:
  EnergyParams params_;
  std::uint64_t activations_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// Projects a row-energy reduction onto a memory technology's total
/// memory-system energy, given the technology's row-energy share (Section V,
/// "Effect on Memory Energy and Peak Bandwidth").
inline double project_memory_energy_reduction(double row_energy_reduction,
                                              double row_share) {
  return row_energy_reduction * row_share;
}

namespace dram {

/// Energy decomposed by physical source, in nanojoules. `row` and `access`
/// match EnergyMeter's definitions exactly; `background` and `refresh` are
/// the state-residency and periodic terms only the accountant models.
struct PowerBreakdown {
  double row_nj = 0.0;         ///< ACT + restore + PRE, once per activation.
  double access_nj = 0.0;      ///< Per 128B RD/WR column access + burst I/O.
  double background_nj = 0.0;  ///< Active- + precharge-standby over residencies.
  double refresh_nj = 0.0;     ///< Periodic refresh (analytic, every tREFI).

  double total_nj() const { return row_nj + access_nj + background_nj + refresh_nj; }

  PowerBreakdown& operator+=(const PowerBreakdown& o) {
    row_nj += o.row_nj;
    access_nj += o.access_nj;
    background_nj += o.background_nj;
    refresh_nj += o.refresh_nj;
    return *this;
  }
};

class PowerAccountant {
 public:
  PowerAccountant(const EnergyParams& params, unsigned num_banks);

  // --- Command taps (same stream ProtocolChecker::on_command observes) ---
  // `now` must be non-decreasing across calls (the command engine issues in
  // cycle order). ACT/PRE toggle the bank's residency state; RD/WR only book
  // access energy.
  void on_activate(BankId bank, Cycle now);
  void on_precharge(BankId bank, Cycle now);
  void on_read(BankId bank) {
    ++banks_[bank].reads;
    ++chan_reads_;
  }
  void on_write(BankId bank) {
    ++banks_[bank].writes;
    ++chan_writes_;
  }

  /// Ends the run at cycle `end` (one past the last simulated memory cycle):
  /// closes every open residency segment, then asserts the residency
  /// identity — per bank, active_cycles + precharge_cycles == end — and the
  /// channel aggregate's agreement with the per-bank sums. Idempotent calls
  /// are a bug (asserted).
  void finalize(Cycle end);
  bool finalized() const { return finalized_; }
  Cycle end_cycle() const { return end_; }

  /// Asserts (to 1e-9 relative) that the accountant's row/access energies and
  /// event counts reconcile with the EnergyMeter oracle fed by the same
  /// command stream. Called by DramChannel at finalize.
  void verify_against(const EnergyMeter& meter) const;

  // --- Residency queries, as of `now` (>= the last observed command) ---
  std::uint64_t bank_active_cycles(BankId bank, Cycle now) const;
  std::uint64_t bank_precharge_cycles(BankId bank, Cycle now) const;
  /// Channel total of bank_active_cycles, O(1) via the lazy aggregate.
  std::uint64_t channel_active_cycles(Cycle now) const;

  // --- Energy queries ---
  PowerBreakdown bank_energy(BankId bank, Cycle now) const;
  /// Channel totals, O(1): does NOT loop over banks.
  PowerBreakdown channel_energy(Cycle now) const;
  /// All-bank refresh bursts completed by `now` (0 when tREFI disabled).
  std::uint64_t refresh_events(Cycle now) const {
    return p_.trefi_cycles == 0 ? 0 : now / p_.trefi_cycles;
  }

  // Post-finalize conveniences for end-of-run stat gauges. Before finalize
  // they evaluate at the last observed state change (a valid lower bound).
  std::uint64_t channel_active_cycles() const {
    return channel_active_cycles(query_end());
  }
  PowerBreakdown bank_energy(BankId bank) const {
    return bank_energy(bank, query_end());
  }
  PowerBreakdown channel_energy() const { return channel_energy(query_end()); }

  unsigned num_banks() const { return static_cast<unsigned>(banks_.size()); }
  const EnergyParams& params() const { return p_; }

 private:
  struct BankState {
    bool active = false;  ///< A row is open (active-standby power applies).
    Cycle since = 0;      ///< Start of the current residency segment.
    std::uint64_t active_cycles = 0;     ///< Closed active residency.
    std::uint64_t precharge_cycles = 0;  ///< Closed precharge residency.
    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  Cycle query_end() const { return finalized_ ? end_ : agg_since_; }

  EnergyParams p_;
  std::vector<BankState> banks_;

  // Channel-level event totals (so channel_energy needs no bank loop).
  std::uint64_t chan_acts_ = 0;
  std::uint64_t chan_reads_ = 0;
  std::uint64_t chan_writes_ = 0;

  // Lazy channel aggregate of active bank-cycles: `agg_active_cycles_` is
  // exact as of `agg_since_`; between state changes, `active_banks_` banks
  // keep accruing, so the total at `now` is
  //   agg_active_cycles_ + active_banks_ * (now - agg_since_).
  std::uint64_t agg_active_cycles_ = 0;
  Cycle agg_since_ = 0;
  unsigned active_banks_ = 0;

  Cycle end_ = 0;
  bool finalized_ = false;
};

}  // namespace dram
}  // namespace lazydram
