// State-based power-accounting tests: the residency-partition identity, the
// analytic refresh/background terms, per-bank vs channel reconciliation, the
// checker's independent residency witness and window telescoping.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "check/checker.hpp"
#include "common/config.hpp"
#include "dram/address.hpp"
#include "dram/channel.hpp"
#include "dram/power.hpp"
#include "core/scheduler_registry.hpp"
#include "mem/controller.hpp"
#include "sim/simulator.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

using dram::PowerAccountant;
using dram::PowerBreakdown;

GpuConfig test_config() {
  GpuConfig cfg;
  cfg.policy.name = "frfcfs";
  cfg.validate();
  return cfg;
}

// Residency identity on a hand-driven state machine: per bank, the active
// and precharge residencies partition elapsed cycles exactly, and the O(1)
// channel aggregate equals the per-bank sum.
TEST(PowerAccounting, ResidencyPartitionIdentity) {
  const EnergyParams p;
  PowerAccountant acc(p, /*num_banks=*/4);
  acc.on_activate(0, 10);
  acc.on_activate(1, 20);
  acc.on_precharge(0, 50);
  acc.finalize(/*end=*/100);

  EXPECT_EQ(acc.bank_active_cycles(0, 100), 40u);
  EXPECT_EQ(acc.bank_precharge_cycles(0, 100), 60u);
  EXPECT_EQ(acc.bank_active_cycles(1, 100), 80u);
  EXPECT_EQ(acc.bank_precharge_cycles(1, 100), 20u);
  std::uint64_t active_sum = 0;
  for (BankId b = 0; b < 4; ++b) {
    EXPECT_EQ(acc.bank_active_cycles(b, 100) + acc.bank_precharge_cycles(b, 100), 100u);
    active_sum += acc.bank_active_cycles(b, 100);
  }
  EXPECT_EQ(active_sum, 120u);
  EXPECT_EQ(acc.channel_active_cycles(), 120u);
}

TEST(PowerAccounting, RefreshEventsFollowTrefi) {
  EnergyParams p;
  p.trefi_cycles = 3600;
  PowerAccountant acc(p, 1);
  EXPECT_EQ(acc.refresh_events(3599), 0u);
  EXPECT_EQ(acc.refresh_events(3600), 1u);
  EXPECT_EQ(acc.refresh_events(7200), 2u);
  p.trefi_cycles = 0;  // 0 disables refresh entirely.
  PowerAccountant off(p, 1);
  EXPECT_EQ(off.refresh_events(1u << 20), 0u);
}

// Channel-level hand arithmetic: one ACT + RD on bank 0, closed at a known
// cycle, finalized at a known end. Every component of the breakdown is
// predicted exactly; finalize_power also runs the EnergyMeter oracle
// reconciliation internally.
TEST(PowerAccounting, ChannelEnergyMatchesHandArithmetic) {
  const GpuConfig cfg = test_config();
  const EnergyParams& p = cfg.energy;
  dram::DramChannel ch(cfg);
  ch.issue(dram::CommandKind::kActivate, 0, 1, 0);
  ch.issue(dram::CommandKind::kRead, 0, 1, cfg.timing.tRCD);
  ch.issue(dram::CommandKind::kPrecharge, 0, kInvalidRow, 60);
  ch.flush_open_rows();
  ch.finalize_power(/*end=*/100);

  const PowerAccountant* pw = &ch.power();
  EXPECT_EQ(pw->bank_active_cycles(0, 100), 60u);
  EXPECT_EQ(pw->bank_precharge_cycles(0, 100), 40u);

  const PowerBreakdown e = pw->channel_energy();
  const double banks = cfg.banks_per_channel;
  EXPECT_DOUBLE_EQ(e.row_nj, p.row_energy_per_act_nj());
  EXPECT_DOUBLE_EQ(e.access_nj, p.rd_access_nj);
  EXPECT_DOUBLE_EQ(e.background_nj, 60.0 * p.act_stby_nj_per_cycle +
                                        (banks * 100.0 - 60.0) * p.pre_stby_nj_per_cycle);
  EXPECT_DOUBLE_EQ(e.refresh_nj, 0.0);  // 100 cycles < tREFI: no burst yet.
  EXPECT_DOUBLE_EQ(e.total_nj(), e.row_nj + e.access_nj + e.background_nj);
}

class PowerControllerTest : public ::testing::Test {
 protected:
  PowerControllerTest()
      : mapper_(cfg_),
        mc_(cfg_, /*channel=*/0, mapper_, core::make_scheduler(cfg_, core::SchemeSpec{})) {}

  MemRequest request(BankId bank, RowId row, std::uint32_t col,
                     AccessKind kind = AccessKind::kRead) {
    MemRequest r;
    r.id = next_id_++;
    r.line_addr = mapper_.compose(0, bank, row, col * kLineBytes);
    r.kind = kind;
    return r;
  }

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      mc_.tick(now_);
      while (mc_.pop_reply(now_)) {
      }
      ++now_;
    }
  }

  GpuConfig cfg_ = test_config();
  AddressMapper mapper_;
  MemoryController mc_;
  Cycle now_ = 0;
  RequestId next_id_ = 1;
};

// An idle controller accrues pure precharge-standby background energy plus
// the analytic refresh term; a loaded one accrues strictly more background
// (active-standby exceeds precharge-standby) on the same formulae.
TEST_F(PowerControllerTest, RefreshAndBackgroundIdleVsLoaded) {
  const EnergyParams& p = cfg_.energy;
  const Cycle cycles = 2 * p.trefi_cycles;  // Exactly two refresh bursts.
  run(cycles);
  mc_.finalize();

  const PowerAccountant* pw = &mc_.channel().power();
  const Cycle end = pw->end_cycle();
  EXPECT_EQ(end, cycles);
  EXPECT_EQ(pw->channel_active_cycles(), 0u);  // Never a single open row.
  const PowerBreakdown idle = pw->channel_energy();
  const double banks = cfg_.banks_per_channel;
  EXPECT_DOUBLE_EQ(idle.background_nj,
                   banks * static_cast<double>(end) * p.pre_stby_nj_per_cycle);
  EXPECT_DOUBLE_EQ(idle.refresh_nj, 2.0 * banks * p.ref_per_bank_nj);
  EXPECT_DOUBLE_EQ(idle.row_nj, 0.0);
  EXPECT_DOUBLE_EQ(idle.access_nj, 0.0);

  // Loaded run of the same length in a fresh controller.
  MemoryController loaded(cfg_, 0, mapper_, core::make_scheduler(cfg_, core::SchemeSpec{}));
  Cycle t = 0;
  for (BankId b = 0; b < 8; ++b)
    for (std::uint32_t c = 0; c < 8; ++c) loaded.enqueue(request(b, 1 + c / 4, c), t);
  for (; t < cycles; ++t) {
    loaded.tick(t);
    while (loaded.pop_reply(t)) {
    }
  }
  loaded.finalize();
  const PowerAccountant* lw = &loaded.channel().power();
  EXPECT_GT(lw->channel_active_cycles(), 0u);
  const PowerBreakdown busy = lw->channel_energy();
  EXPECT_GT(busy.background_nj, idle.background_nj);
  EXPECT_DOUBLE_EQ(busy.refresh_nj, idle.refresh_nj);  // Same elapsed time.
}

// The protocol checker's shadow banks time the same open/close transitions
// from an independently-maintained state machine; its per-bank active
// residencies must agree with the accountant exactly.
TEST_F(PowerControllerTest, ResidenciesMatchCheckerShadow) {
  check::CheckerOptions opts;
  opts.mode = check::CheckMode::kStrict;
  check::ProtocolChecker ck(cfg_, 0, opts);
  mc_.set_checker(&ck);

  for (BankId b = 0; b < 8; ++b) {
    for (std::uint32_t c = 0; c < 4; ++c) mc_.enqueue(request(b, 2, c), now_);
    mc_.enqueue(request(b, 3, 0, AccessKind::kWrite), now_);  // Row conflict.
  }
  run(4000);
  EXPECT_TRUE(mc_.idle());
  mc_.finalize();

  const PowerAccountant* pw = &mc_.channel().power();
  const Cycle end = pw->end_cycle();
  EXPECT_EQ(ck.violation_count(), 0u);
  std::uint64_t total = 0;
  for (BankId b = 0; b < cfg_.banks_per_channel; ++b) {
    EXPECT_EQ(ck.shadow_active_cycles(b, end), pw->bank_active_cycles(b, end))
        << "bank " << static_cast<int>(b);
    total += pw->bank_active_cycles(b, end);
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(pw->channel_active_cycles(), total);
}

// Per-window component energies are cumulative-probe differences, so their
// sums telescope to the accountant's end-of-run totals exactly (same doubles
// up to summation rounding).
TEST_F(PowerControllerTest, WindowEnergiesTelescopeToRunTotals) {
  mc_.enable_window_sampling(/*window=*/256, /*tracer=*/nullptr);
  for (BankId b = 0; b < 8; ++b)
    for (std::uint32_t c = 0; c < 6; ++c) mc_.enqueue(request(b, c % 3, c), now_);
  run(3000);
  mc_.finalize();

  const PowerAccountant* pw = &mc_.channel().power();
  const PowerBreakdown total = pw->channel_energy();
  double row = 0, access = 0, background = 0, refresh = 0, energy = 0, bank_sum = 0;
  ASSERT_NE(mc_.sampler(), nullptr);
  for (const telemetry::WindowSample& w : mc_.sampler()->samples()) {
    row += w.energy_row_nj;
    access += w.energy_access_nj;
    background += w.energy_background_nj;
    refresh += w.energy_refresh_nj;
    energy += w.energy_nj;
    for (const telemetry::BankWindowSample& b : w.banks) bank_sum += b.energy_nj;
  }
  const double tol = 1e-9 * total.total_nj();
  EXPECT_NEAR(row, total.row_nj, tol);
  EXPECT_NEAR(access, total.access_nj, tol);
  EXPECT_NEAR(background, total.background_nj, tol);
  EXPECT_NEAR(refresh, total.refresh_nj, tol);
  EXPECT_NEAR(energy, total.total_nj(), tol);
  EXPECT_NEAR(bank_sum, total.total_nj(), tol);
  EXPECT_GT(background, 0.0);
}

// End-to-end: per-bank energies folded into RunMetrics sum back to the
// channel totals across schemes, and the derived share/power fields are
// sane. (The full 3-workload x 7-scheme matrix runs under the benches; the
// accountant LD_ASSERTs its identities inside every one of those runs.)
TEST(PowerAccounting, PerBankSumsMatchChannelTotals) {
  for (const core::SchemeKind kind :
       {core::SchemeKind::kBaseline, core::SchemeKind::kStaticAms,
        core::SchemeKind::kDynCombo}) {
    const auto wl = workloads::make_workload("3MM");
    ASSERT_NE(wl, nullptr);
    sim::RunConfig rc;
    rc.spec = core::make_scheme_spec(kind, rc.gpu.scheme);
    rc.compute_error = false;
    const sim::RunMetrics m = sim::simulate(*wl, rc);
    ASSERT_TRUE(m.finished);

    ASSERT_EQ(m.bank_energy_nj.size(), rc.gpu.banks_per_channel);
    const double bank_sum =
        std::accumulate(m.bank_energy_nj.begin(), m.bank_energy_nj.end(), 0.0);
    EXPECT_NEAR(bank_sum, m.total_energy_nj, 1e-9 * m.total_energy_nj);
    EXPECT_DOUBLE_EQ(m.total_energy_nj, m.row_energy_nj + m.access_energy_nj +
                                            m.background_energy_nj + m.refresh_energy_nj);
    EXPECT_GT(m.background_energy_nj, 0.0);
    EXPECT_GT(m.refresh_energy_nj, 0.0);
    EXPECT_GT(m.measured_row_share, 0.0);
    EXPECT_LT(m.measured_row_share, 1.0);
    EXPECT_GT(m.avg_power_w, 0.0);
  }
}

}  // namespace
}  // namespace lazydram
