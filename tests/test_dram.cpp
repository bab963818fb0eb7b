// GDDR5 timing-model tests: every command respects the Table I constraints,
// the channel enforces cross-bank/bus rules, and RBL/energy bookkeeping is
// exact.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "dram/bank.hpp"
#include "dram/channel.hpp"
#include "dram/power.hpp"

namespace lazydram::dram {
namespace {

DramTiming timing() { return GpuConfig{}.timing; }

TEST(Bank, ActivateThenReadRespectsTrcd) {
  Bank bank(timing());
  bank.activate(5, 100);
  EXPECT_FALSE(bank.can_read(100 + timing().tRCD - 1));
  EXPECT_TRUE(bank.can_read(100 + timing().tRCD));
}

TEST(Bank, PrechargeRespectsTras) {
  Bank bank(timing());
  bank.activate(5, 100);
  EXPECT_FALSE(bank.can_precharge(100 + timing().tRAS - 1));
  EXPECT_TRUE(bank.can_precharge(100 + timing().tRAS));
}

TEST(Bank, ActivateToActivateRespectsTrcAndTrp) {
  const DramTiming t = timing();
  Bank bank(t);
  bank.activate(1, 0);
  bank.read(t.tRCD);
  bank.precharge(t.tRAS);
  // tRP after PRE and tRC after ACT both gate the next ACT.
  const Cycle earliest = std::max<Cycle>(t.tRAS + t.tRP, t.tRC);
  EXPECT_FALSE(bank.can_activate(earliest - 1));
  EXPECT_TRUE(bank.can_activate(earliest));
}

TEST(Bank, ConsecutiveReadsRespectTccd) {
  const DramTiming t = timing();
  Bank bank(t);
  bank.activate(1, 0);
  bank.read(t.tRCD);
  EXPECT_FALSE(bank.can_read(t.tRCD + t.tCCD - 1));
  EXPECT_TRUE(bank.can_read(t.tRCD + t.tCCD));
}

TEST(Bank, WriteToReadRespectsTcdlr) {
  const DramTiming t = timing();
  Bank bank(t);
  bank.activate(1, 0);
  const Cycle data_end = bank.write(t.tRCD);
  EXPECT_EQ(data_end, t.tRCD + t.tWL + t.tBURST);
  EXPECT_FALSE(bank.can_read(data_end + t.tCDLR - 1));
  EXPECT_TRUE(bank.can_read(data_end + t.tCDLR));
}

TEST(Bank, WriteRecoveryGatesPrecharge) {
  const DramTiming t = timing();
  Bank bank(t);
  bank.activate(1, 0);
  const Cycle data_end = bank.write(t.tRCD);
  EXPECT_FALSE(bank.can_precharge(data_end + t.tWR - 1));
  EXPECT_TRUE(bank.can_precharge(data_end + t.tWR));
}

TEST(Bank, PrechargeReportsRblAndReadOnly) {
  const DramTiming t = timing();
  Bank bank(t);
  bank.activate(7, 0);
  bank.read(t.tRCD);
  bank.read(t.tRCD + t.tCCD);
  const Bank::ClosedRow closed = bank.precharge(t.tRAS + t.tBURST);
  EXPECT_EQ(closed.accesses, 2u);
  EXPECT_TRUE(closed.read_only);
  EXPECT_EQ(closed.row, 7u);
}

TEST(Bank, WriteClearsReadOnlyFlag) {
  const DramTiming t = timing();
  Bank bank(t);
  bank.activate(3, 0);
  bank.read(t.tRCD);
  bank.write(t.tRCD + t.tCCD);
  EXPECT_FALSE(bank.open_row_read_only());
}

TEST(Bank, FlushReturnsOpenRowTally) {
  const DramTiming t = timing();
  Bank bank(t);
  bank.activate(9, 0);
  bank.read(t.tRCD);
  const Bank::ClosedRow closed = bank.flush();
  EXPECT_EQ(closed.accesses, 1u);
  EXPECT_FALSE(bank.row_open());
  EXPECT_EQ(bank.flush().accesses, 0u);  // Idempotent on a closed bank.
}

// --- Channel-scope constraints -------------------------------------------

GpuConfig config() {
  GpuConfig cfg;
  cfg.validate();
  return cfg;
}

TEST(Channel, TrrdGatesActsAcrossBanks) {
  const GpuConfig cfg = config();
  DramChannel ch(cfg);
  ch.issue(CommandKind::kActivate, 0, 1, 100);
  EXPECT_FALSE(ch.can_issue(CommandKind::kActivate, 1, 100 + cfg.timing.tRRD - 1));
  EXPECT_TRUE(ch.can_issue(CommandKind::kActivate, 1, 100 + cfg.timing.tRRD));
}

TEST(Channel, TccdGatesSameBankGroupCas) {
  const GpuConfig cfg = config();
  DramChannel ch(cfg);
  // Banks 0 and 4 share bank group 0 (group = bank % 4).
  ch.issue(CommandKind::kActivate, 0, 1, 0);
  ch.issue(CommandKind::kActivate, 4, 1, cfg.timing.tRRD);
  const Cycle rd = cfg.timing.tRCD + cfg.timing.tRRD;
  ch.issue(CommandKind::kRead, 0, 1, rd);
  EXPECT_FALSE(ch.can_issue(CommandKind::kRead, 4, rd + cfg.timing.tCCD - 1));
}

TEST(Channel, DataBusSerializesBursts) {
  const GpuConfig cfg = config();
  DramChannel ch(cfg);
  // Banks 0 and 1 are in different groups, so only the bus constrains them.
  ch.issue(CommandKind::kActivate, 0, 1, 0);
  ch.issue(CommandKind::kActivate, 1, 1, cfg.timing.tRRD);
  const Cycle rd0 = 40;
  const Cycle done0 = ch.issue(CommandKind::kRead, 0, 1, rd0);
  EXPECT_EQ(done0, rd0 + cfg.timing.tCL + cfg.timing.tBURST);
  // A read on bank 1 issued immediately after would overlap the bus.
  EXPECT_FALSE(ch.can_issue(CommandKind::kRead, 1, rd0 + 1));
  EXPECT_TRUE(ch.can_issue(CommandKind::kRead, 1, rd0 + cfg.timing.tBURST));
}

TEST(Channel, CountsEnergyEvents) {
  const GpuConfig cfg = config();
  DramChannel ch(cfg);
  ch.issue(CommandKind::kActivate, 2, 9, 0);
  ch.issue(CommandKind::kRead, 2, 9, cfg.timing.tRCD);
  ch.issue(CommandKind::kWrite, 2, 9, cfg.timing.tRCD + 5 * cfg.timing.tBURST);
  EXPECT_EQ(ch.energy().activations(), 1u);
  EXPECT_EQ(ch.energy().read_accesses(), 1u);
  EXPECT_EQ(ch.energy().write_accesses(), 1u);
  EXPECT_GT(ch.energy().row_energy_nj(), 0.0);
  EXPECT_EQ(ch.bus_busy_cycles(), 2u * cfg.timing.tBURST);
}

TEST(Channel, RblHistogramsSplitReadOnlyRows) {
  const GpuConfig cfg = config();
  DramChannel ch(cfg);
  const DramTiming& t = cfg.timing;
  // Row 1 on bank 0 serves two reads then closes; row 2 on bank 1 serves
  // one read and one write and is left open for the flush. Commands are
  // interleaved in global cycle order, as the controller issues them.
  ch.issue(CommandKind::kActivate, 0, 1, 0);
  ch.issue(CommandKind::kActivate, 1, 2, t.tRRD);
  ch.issue(CommandKind::kRead, 0, 1, t.tRCD);
  ch.issue(CommandKind::kRead, 0, 1, t.tRCD + t.tBURST);
  ch.issue(CommandKind::kRead, 1, 2, 3 * t.tRCD);
  ch.issue(CommandKind::kWrite, 1, 2, 3 * t.tRCD + 5 * t.tBURST);
  ch.issue(CommandKind::kPrecharge, 0, kInvalidRow, 100);
  ch.flush_open_rows();

  EXPECT_EQ(ch.rbl_histogram().at(2), 2u);  // Both rows achieved RBL 2.
  EXPECT_EQ(ch.rbl_readonly_histogram().total(), 1u);  // Only row 1 was read-only.
}

TEST(EnergyMeter, RowEnergyProportionalToActivations) {
  const EnergyParams p;
  EnergyMeter m(p);
  for (int i = 0; i < 10; ++i) m.on_activation();
  EXPECT_DOUBLE_EQ(m.row_energy_nj(), 10 * p.row_energy_per_act_nj());
  m.on_read_access();
  m.on_write_access();
  EXPECT_DOUBLE_EQ(m.access_energy_nj(), p.rd_access_nj + p.wr_access_nj);
  EXPECT_DOUBLE_EQ(m.total_energy_nj(), m.row_energy_nj() + m.access_energy_nj());
}

TEST(EnergyProjection, MatchesPaperArithmetic) {
  // 44% row-energy reduction -> 22% on HBM1 (50% share), 11% on HBM2 (25%).
  EXPECT_DOUBLE_EQ(project_memory_energy_reduction(0.44, 0.50), 0.22);
  EXPECT_DOUBLE_EQ(project_memory_energy_reduction(0.44, 0.25), 0.11);
}

}  // namespace
}  // namespace lazydram::dram
