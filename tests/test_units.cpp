// DmsUnit / AmsUnit state-machine tests: window accounting, the Dyn-DMS
// search (warm-up, sampling, up/down stepping, fall-back, restart) and the
// Dyn-AMS Th_RBL walk.
#include <gtest/gtest.h>

#include "common/config.hpp"
#include "core/ams.hpp"
#include "core/dms.hpp"
#include "dram/address.hpp"
#include "mem/pending_queue.hpp"

namespace lazydram::core {
namespace {

SchemeParams params() {
  SchemeParams p;
  p.profile_window = 64;  // Small windows keep the tests fast.
  return p;
}

/// Feeds `windows` whole profiling windows at the given per-window BWUTIL.
void feed(DmsUnit& dms, Cycle& now, std::uint64_t& busy_total, double bwutil,
          unsigned windows, const SchemeParams& p) {
  for (unsigned w = 0; w < windows; ++w) {
    for (Cycle c = 0; c < p.profile_window; ++c) {
      busy_total += static_cast<std::uint64_t>(bwutil * 1000);
      dms.tick(++now, busy_total / 1000);
    }
  }
}

TEST(DmsUnit, StaticHoldsFixedDelay) {
  const SchemeParams p = params();
  DmsUnit dms(p, /*dynamic=*/false, 256);
  EXPECT_EQ(dms.current_delay(), 256u);
  Cycle now = 0;
  std::uint64_t busy = 0;
  feed(dms, now, busy, 0.9, 10, p);
  EXPECT_EQ(dms.current_delay(), 256u);
  EXPECT_FALSE(dms.sampling());
}

TEST(DmsUnit, AgeGate) {
  DmsUnit dms(params(), false, 100);
  EXPECT_FALSE(dms.allows(/*enqueue=*/50, /*now=*/149));
  EXPECT_TRUE(dms.allows(50, 150));
}

TEST(DynDms, SearchesUpWhileBwutilHolds) {
  const SchemeParams p = params();
  DmsUnit dms(p, /*dynamic=*/true, 0);
  Cycle now = 0;
  std::uint64_t busy = 0;
  EXPECT_TRUE(dms.sampling());       // Warm-up window.
  feed(dms, now, busy, 0.5, 1, p);   // Warm-up done -> sampling.
  EXPECT_TRUE(dms.sampling());
  feed(dms, now, busy, 0.5, 1, p);   // Baseline sampled at 0.5.
  EXPECT_EQ(dms.current_delay(), p.static_delay);  // Search starts at 128.
  feed(dms, now, busy, 0.5, 3, p);   // Three passing windows.
  EXPECT_EQ(dms.current_delay(), p.static_delay + 3 * p.delay_step);
}

TEST(DynDms, FallsBackToLastGoodDelayOnViolation) {
  const SchemeParams p = params();
  DmsUnit dms(p, true, 0);
  Cycle now = 0;
  std::uint64_t busy = 0;
  feed(dms, now, busy, 0.5, 2, p);  // Warm-up + baseline 0.5.
  feed(dms, now, busy, 0.5, 2, p);  // 128, 256 pass.
  feed(dms, now, busy, 0.2, 1, p);  // 384 violates (<95% of 0.5).
  // Falls back to the last passing value (256) and holds.
  EXPECT_EQ(dms.current_delay(), 256u);
  feed(dms, now, busy, 0.2, 3, p);
  EXPECT_EQ(dms.current_delay(), 256u);
}

TEST(DynDms, SearchesDownWhenSeededValueViolates) {
  const SchemeParams p = params();
  DmsUnit dms(p, true, 0);
  Cycle now = 0;
  std::uint64_t busy = 0;
  feed(dms, now, busy, 0.5, 2, p);   // Warm-up + baseline 0.5, delay -> 128.
  feed(dms, now, busy, 0.5, 15, p);  // Climbs to the 2048 cap and holds
  EXPECT_EQ(dms.current_delay(), p.max_delay);  // (recorded delay = 2048).
  feed(dms, now, busy, 0.5, 15, p);  // Window 32: restart -> sampling.
  feed(dms, now, busy, 0.9, 1, p);   // New baseline 0.9; seeded at 2048.
  EXPECT_EQ(dms.current_delay(), p.max_delay);
  feed(dms, now, busy, 0.3, 3, p);   // Every window violates: walk down.
  EXPECT_EQ(dms.current_delay(), p.max_delay - 3 * p.delay_step);
}

TEST(DynDms, CapsAtMaxDelay) {
  const SchemeParams p = params();
  DmsUnit dms(p, true, 0);
  Cycle now = 0;
  std::uint64_t busy = 0;
  feed(dms, now, busy, 0.5, 30, p);
  EXPECT_LE(dms.current_delay(), p.max_delay);
}

TEST(DynDms, WindowBoundariesStayOnProfileGridWhenObservedLate) {
  // A controller that isn't ticked on the exact boundary cycle observes the
  // boundary late. The window start must still advance by whole
  // profile_window multiples — snapping it to the observation cycle would
  // drift the schedule off the grid that WindowSampler and Dyn-AMS share.
  const SchemeParams p = params();  // profile_window = 64.
  DmsUnit dms(p, /*dynamic=*/true, 0);
  std::uint64_t busy = 0;
  for (Cycle now = 10; now <= 700; now += 10) {
    dms.tick(now, busy += 5);
    EXPECT_EQ(dms.window_start() % p.profile_window, 0u) << "at cycle " << now;
  }
  // Boundaries were observed at 70, 130, 200, ...; the grid still lands on
  // exact multiples, finishing the window that started at 640.
  EXPECT_EQ(dms.window_start(), 640u);
}

TEST(DynAms, LowersThRblWhenCoverageAchieved) {
  const SchemeParams p = params();
  AmsUnit ams(p, /*dynamic=*/true, 8);
  EXPECT_EQ(ams.th_rbl(), 8u);
  Cycle now = 0;
  // Window with coverage 20% (>= 10% target): Th_RBL drops.
  for (unsigned w = 0; w < 3; ++w) {
    for (unsigned i = 0; i < 10; ++i) {
      ams.on_read_received();
      if (i < 2) ams.on_drop();
    }
    for (Cycle c = 0; c < p.profile_window; ++c) ams.tick(++now, false);
  }
  EXPECT_EQ(ams.th_rbl(), 5u);
}

TEST(DynAms, RaisesThRblWhenCoverageShort) {
  const SchemeParams p = params();
  AmsUnit ams(p, true, 8);
  Cycle now = 0;
  // Drive Th down to 6, then feed drop-less windows: Th recovers to 8.
  for (unsigned w = 0; w < 2; ++w) {
    for (unsigned i = 0; i < 10; ++i) {
      ams.on_read_received();
      if (i < 3) ams.on_drop();
    }
    for (Cycle c = 0; c < p.profile_window; ++c) ams.tick(++now, false);
  }
  EXPECT_EQ(ams.th_rbl(), 6u);
  for (unsigned w = 0; w < 4; ++w) {
    for (unsigned i = 0; i < 10; ++i) ams.on_read_received();
    for (Cycle c = 0; c < p.profile_window; ++c) ams.tick(++now, false);
  }
  EXPECT_EQ(ams.th_rbl(), 8u);
}

TEST(DynAms, ThRblStaysWithinRange) {
  const SchemeParams p = params();
  AmsUnit ams(p, true, 8);
  Cycle now = 0;
  for (unsigned w = 0; w < 20; ++w) {
    for (unsigned i = 0; i < 10; ++i) {
      ams.on_read_received();
      if (i < 5) ams.on_drop();
    }
    for (Cycle c = 0; c < p.profile_window; ++c) ams.tick(++now, false);
  }
  EXPECT_EQ(ams.th_rbl(), p.min_th_rbl);
}

TEST(AmsUnit, CumulativeCoverage) {
  AmsUnit ams(params(), false, 8);
  for (int i = 0; i < 9; ++i) ams.on_read_received();
  ams.on_drop();
  ams.on_read_received();
  EXPECT_DOUBLE_EQ(ams.coverage(), 0.1);
}

TEST(AmsUnit, DropsAtExactThRblBoundary) {
  // Boundary audit: the paper drops rows with a low access count, i.e. RBL
  // <= Th_RBL — a group of exactly Th_RBL pending reads still qualifies, one
  // more does not. Pins the strict `>` refusal in AmsUnit::admits_row.
  const SchemeParams p = params();
  const unsigned th = 4;
  AmsUnit ams(p, /*dynamic=*/false, th);
  ams.set_ready(true);

  GpuConfig cfg;
  cfg.validate();
  AddressMapper mapper(cfg);
  PendingQueue queue(32, cfg.banks_per_channel);
  const auto push_read = [&](RequestId id, std::uint32_t col) {
    MemRequest r;
    r.id = id;
    r.line_addr = mapper.compose(0, /*bank=*/1, /*row=*/2, col * kLineBytes);
    r.kind = AccessKind::kRead;
    r.approximable = true;
    r.loc = mapper.map(r.line_addr);
    queue.push(r);
    ams.on_read_received();
  };

  for (RequestId id = 1; id <= th; ++id)
    push_read(id, static_cast<std::uint32_t>(id - 1));
  const MemRequest* cand = queue.oldest_for_bank(1);
  ASSERT_NE(cand, nullptr);
  EXPECT_TRUE(ams.has_budget(cand->tenant));
  EXPECT_TRUE(ams.admits_row(queue, *cand));  // RBL == Th_RBL: drops.

  push_read(th + 1, th);  // RBL == Th_RBL + 1: too hot to drop.
  EXPECT_FALSE(ams.admits_row(queue, *queue.oldest_for_bank(1)));
}

TEST(AmsUnit, HaltedWhileDmsSamples) {
  const SchemeParams p = params();
  AmsUnit ams(p, false, 8);
  ams.set_ready(true);
  ams.tick(0, /*halted=*/true);
  EXPECT_FALSE(ams.may_drop());
  ams.tick(1, /*halted=*/false);
  EXPECT_TRUE(ams.may_drop());
}

}  // namespace
}  // namespace lazydram::core
