// Scheduler policy tests: FR-FCFS ordering, FCFS ordering, the lazy
// scheduler's DMS gate and AMS admission criteria, and the Dyn-DMS search
// edge cases the scheduler's age gate depends on. The row-group drain that
// follows an admission belongs to the controller (test_controller_schemes).
#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"
#include "core/dms.hpp"
#include "core/lazy_scheduler.hpp"
#include "dram/address.hpp"
#include "mem/fcfs.hpp"
#include "mem/frfcfs.hpp"
#include "telemetry/trace.hpp"

namespace lazydram {
namespace {

/// In-memory trace sink for asserting on emitted event sequences.
struct CaptureSink final : telemetry::TraceSink {
  std::vector<telemetry::TraceEvent> events;
  void on_event(const telemetry::TraceEvent& e) override { events.push_back(e); }
  void on_window(const telemetry::WindowSample&) override {}
  unsigned count(telemetry::EventKind k) const {
    unsigned n = 0;
    for (const telemetry::TraceEvent& e : events) n += e.kind == k ? 1u : 0u;
    return n;
  }
};

SchemeParams dms_params() {
  SchemeParams p;
  p.profile_window = 64;  // Small windows keep the tests fast.
  return p;
}

/// Feeds `windows` whole profiling windows at the given per-window BWUTIL.
void feed_windows(core::DmsUnit& dms, Cycle& now, std::uint64_t& busy_total,
                  double bwutil, unsigned windows, const SchemeParams& p) {
  for (unsigned w = 0; w < windows; ++w) {
    for (Cycle c = 0; c < p.profile_window; ++c) {
      busy_total += static_cast<std::uint64_t>(bwutil * 1000);
      dms.tick(++now, busy_total / 1000);
    }
  }
}

TEST(DynDmsSearch, DownwardSearchCommitsFirstPassingDelayAndHolds) {
  // After a restart the search is seeded with the previously settled delay.
  // When that seed violates the 95% threshold under the new baseline, the
  // search walks downward — and the first window that passes again must
  // commit (recorded + holding), not keep walking.
  const SchemeParams p = dms_params();
  core::DmsUnit dms(p, /*dynamic=*/true, 0);
  Cycle now = 0;
  std::uint64_t busy = 0;
  feed_windows(dms, now, busy, 0.5, 2, p);   // Warm-up + baseline 0.5.
  feed_windows(dms, now, busy, 0.5, 15, p);  // Climbs to the 2048 cap.
  ASSERT_EQ(dms.current_delay(), p.max_delay);
  feed_windows(dms, now, busy, 0.5, 15, p);  // Window 32: restart -> sampling.
  feed_windows(dms, now, busy, 0.9, 1, p);   // New baseline 0.9; seeded at 2048.
  feed_windows(dms, now, busy, 0.3, 3, p);   // Three violating windows: walk down.
  ASSERT_EQ(dms.current_delay(), p.max_delay - 3 * p.delay_step);
  feed_windows(dms, now, busy, 0.9, 1, p);   // Passes: commit and hold here.
  EXPECT_EQ(dms.current_delay(), p.max_delay - 3 * p.delay_step);
  EXPECT_FALSE(dms.sampling());
  feed_windows(dms, now, busy, 0.2, 5, p);   // Holding: later windows can't move it.
  EXPECT_EQ(dms.current_delay(), p.max_delay - 3 * p.delay_step);
}

TEST(DynDmsSearch, DownwardSearchBottomsOutAtMinDelay) {
  const SchemeParams p = dms_params();
  core::DmsUnit dms(p, /*dynamic=*/true, 0);
  Cycle now = 0;
  std::uint64_t busy = 0;
  feed_windows(dms, now, busy, 0.5, 17, p);  // Settle at the 2048 cap.
  feed_windows(dms, now, busy, 0.5, 15, p);  // Window 32: restart -> sampling.
  feed_windows(dms, now, busy, 0.9, 1, p);   // New baseline; seeded at 2048.
  feed_windows(dms, now, busy, 0.3, 20, p);  // Nothing ever passes again.
  EXPECT_EQ(dms.current_delay(), p.min_delay);  // Fallback floor, held.
  feed_windows(dms, now, busy, 0.3, 2, p);
  EXPECT_EQ(dms.current_delay(), p.min_delay);
}

TEST(DynDmsSearch, RestartMidSearchSeedsFromLastGoodDelay) {
  // With a huge max_delay the upward search is still running when the
  // 32-window restart fires. The best delay seen so far is the freshest
  // settled value, so the next search must be seeded from it — not from the
  // stale recorded_delay_ of the previous phase.
  SchemeParams p = dms_params();
  p.max_delay = 1u << 20;
  core::DmsUnit dms(p, /*dynamic=*/true, 0);
  Cycle now = 0;
  std::uint64_t busy = 0;
  feed_windows(dms, now, busy, 0.5, 31, p);  // Warm-up, baseline, 29 passing steps.
  EXPECT_EQ(dms.current_delay(), 30 * p.delay_step);  // Still searching upward.
  feed_windows(dms, now, busy, 0.5, 1, p);   // Window 32: restart mid-search.
  EXPECT_TRUE(dms.sampling());
  EXPECT_EQ(dms.current_delay(), 0u);        // Sampling window runs at delay 0.
  feed_windows(dms, now, busy, 0.5, 1, p);   // Baseline resampled; search reseeded.
  EXPECT_EQ(dms.current_delay(), 29 * p.delay_step);  // Last good delay, not 128.
  feed_windows(dms, now, busy, 0.5, 1, p);   // And the climb resumes from there.
  EXPECT_EQ(dms.current_delay(), 30 * p.delay_step);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : mapper_(cfg_), queue_(cfg_.pending_queue_size, cfg_.banks_per_channel) {
    cfg_.validate();
  }

  MemRequest push(RequestId id, BankId bank, RowId row, std::uint32_t col,
                  AccessKind kind = AccessKind::kRead, bool approx = true,
                  Cycle enq = 0) {
    MemRequest r;
    r.id = id;
    r.line_addr = mapper_.compose(0, bank, row, col * kLineBytes);
    r.kind = kind;
    r.approximable = approx && kind == AccessKind::kRead;
    r.loc = mapper_.map(r.line_addr);
    r.enqueue_cycle = enq;
    queue_.push(r);
    return r;
  }

  core::LazyScheduler make_lazy(const core::SchemeSpec& spec) {
    return core::LazyScheduler(cfg_.scheme, spec, cfg_.banks_per_channel);
  }

  GpuConfig cfg_;
  AddressMapper mapper_;
  PendingQueue queue_;
};

TEST_F(SchedulerTest, FrFcfsPrefersRowHitOverOlderRequest) {
  FrFcfsScheduler sched;
  push(1, 0, 5, 0);  // Older, row 5.
  push(2, 0, 9, 0);  // Younger, row 9 == open row.
  const Decision d = sched.decide(queue_, BankView{0, true, 9}, 100);
  EXPECT_EQ(d.action, Decision::Action::kServe);
  EXPECT_EQ(d.req_id, 2u);
}

TEST_F(SchedulerTest, FrFcfsFallsBackToOldest) {
  FrFcfsScheduler sched;
  push(1, 0, 5, 0);
  push(2, 0, 9, 0);
  const Decision d = sched.decide(queue_, BankView{0, true, 7}, 100);
  EXPECT_EQ(d.req_id, 1u);
}

TEST_F(SchedulerTest, FcfsIgnoresRowHits) {
  FcfsScheduler sched;
  push(1, 0, 5, 0);
  push(2, 0, 9, 0);  // Row hit for open row 9, but younger.
  const Decision d = sched.decide(queue_, BankView{0, true, 9}, 100);
  EXPECT_EQ(d.req_id, 1u);
}

TEST_F(SchedulerTest, BaselineLazyMatchesFrFcfs) {
  FrFcfsScheduler fr;
  core::LazyScheduler lazy = make_lazy(core::SchemeSpec{});
  push(1, 0, 5, 0);
  push(2, 0, 9, 0);
  push(3, 1, 2, 0);
  for (const BankView view :
       {BankView{0, true, 9}, BankView{0, true, 7}, BankView{0, false, kInvalidRow},
        BankView{1, false, kInvalidRow}}) {
    const Decision a = fr.decide(queue_, view, 50);
    const Decision b = lazy.decide(queue_, view, 50);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.req_id, b.req_id);
  }
}

TEST_F(SchedulerTest, DmsGatesYoungRowMisses) {
  core::SchemeSpec spec = core::make_static_dms_spec(100, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  push(1, 0, 5, 0, AccessKind::kRead, true, /*enq=*/50);
  // Age 49 at cycle 99: gated.
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 99).action,
            Decision::Action::kNone);
  // Age 100 at cycle 150: allowed.
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 150).action,
            Decision::Action::kServe);
}

TEST_F(SchedulerTest, GatedDecisionReportsStabilityHorizon) {
  core::SchemeSpec spec = core::make_static_dms_spec(100, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  push(1, 0, 5, 0, AccessKind::kRead, true, /*enq=*/40);
  const Decision d = lazy.decide(queue_, BankView{0, false, kInvalidRow}, 99);
  EXPECT_EQ(d.action, Decision::Action::kNone);
  EXPECT_EQ(d.none_until, 140u);  // enqueue 40 + delay 100.
  // One cycle before the horizon the answer is still kNone; exactly at the
  // horizon the age gate opens.
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 139).action,
            Decision::Action::kNone);
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 140).action,
            Decision::Action::kServe);
}

TEST_F(SchedulerTest, StallClosedWhenStalledRequestLeavesWithoutDecide) {
  // A DMS stall opens when decide() gates a request. The request can then
  // leave the queue through the serve/drop notification without another
  // decide() on its bank (a drain swallows it; it becomes a row hit after a
  // drain re-opens its row). The stall must close from the notification
  // itself, or the trace leaks an open interval forever.
  core::SchemeSpec spec = core::make_static_dms_spec(100, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  CaptureSink sink;
  telemetry::Tracer tracer;
  tracer.set_sink(&sink);
  lazy.set_telemetry(&tracer, 0);
  lazy.tick(10, 0);

  // Bank 0: stalled request leaves via on_drop.
  const MemRequest r1 = push(1, 0, 5, 0, AccessKind::kRead, true, /*enq=*/0);
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 50).action,
            Decision::Action::kNone);
  EXPECT_EQ(sink.count(telemetry::EventKind::kDmsStallBegin), 1u);
  EXPECT_EQ(sink.count(telemetry::EventKind::kDmsStallEnd), 0u);
  queue_.erase(1);
  lazy.on_drop(r1);
  EXPECT_EQ(sink.count(telemetry::EventKind::kDmsStallEnd), 1u);

  // Bank 1: stalled request leaves via on_serve.
  const MemRequest r2 = push(2, 1, 3, 0, AccessKind::kRead, true, /*enq=*/0);
  EXPECT_EQ(lazy.decide(queue_, BankView{1, false, kInvalidRow}, 60).action,
            Decision::Action::kNone);
  EXPECT_EQ(sink.count(telemetry::EventKind::kDmsStallBegin), 2u);
  queue_.erase(2);
  lazy.on_serve(r2);
  EXPECT_EQ(sink.count(telemetry::EventKind::kDmsStallEnd), 2u);

  // Notifications for unstalled requests must not emit spurious ends.
  const MemRequest r3 = push(3, 2, 4, 0, AccessKind::kRead, true, /*enq=*/0);
  queue_.erase(3);
  lazy.on_serve(r3);
  EXPECT_EQ(sink.count(telemetry::EventKind::kDmsStallEnd), 2u);
}

TEST_F(SchedulerTest, DmsNeverGatesRowHits) {
  core::SchemeSpec spec = core::make_static_dms_spec(1000, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  push(1, 0, 9, 0, AccessKind::kRead, true, /*enq=*/90);
  const Decision d = lazy.decide(queue_, BankView{0, true, 9}, 100);
  EXPECT_EQ(d.action, Decision::Action::kServe);  // Hit despite age 10 < 1000.
}

TEST_F(SchedulerTest, DelayAllAblationGatesHitsToo) {
  core::SchemeSpec spec = core::make_static_dms_spec(1000, cfg_.scheme);
  spec.dms_delay_row_hits = true;
  core::LazyScheduler lazy = make_lazy(spec);
  push(1, 0, 9, 0, AccessKind::kRead, true, /*enq=*/90);
  EXPECT_EQ(lazy.decide(queue_, BankView{0, true, 9}, 100).action,
            Decision::Action::kNone);
}

TEST_F(SchedulerTest, AmsDropsQualifyingLowRblGroup) {
  core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  lazy.set_ams_ready(true);
  const MemRequest r = push(1, 0, 5, 0);
  lazy.on_enqueue(r);
  const Decision d = lazy.decide(queue_, BankView{0, false, kInvalidRow}, 100);
  EXPECT_EQ(d.action, Decision::Action::kDrop);
  EXPECT_EQ(d.req_id, 1u);
}

TEST_F(SchedulerTest, AmsNeverDropsBeforeL2Warmup) {
  core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);  // set_ams_ready not called.
  const MemRequest r = push(1, 0, 5, 0);
  lazy.on_enqueue(r);
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 100).action,
            Decision::Action::kServe);
  EXPECT_FALSE(lazy.may_drop());
}

TEST_F(SchedulerTest, AmsRespectsThRblThreshold) {
  core::SchemeSpec spec = core::make_static_ams_spec(2, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  lazy.set_ams_ready(true);
  // Three pending requests to the row: RBL 3 > Th_RBL 2 -> serve.
  for (RequestId i = 1; i <= 3; ++i) lazy.on_enqueue(push(i, 0, 5, i - 1));
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 100).action,
            Decision::Action::kServe);
}

TEST_F(SchedulerTest, AmsRefusesRowsWithPendingWrites) {
  core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  lazy.set_ams_ready(true);
  lazy.on_enqueue(push(1, 0, 5, 0));
  lazy.on_enqueue(push(2, 0, 5, 1, AccessKind::kWrite));
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 100).action,
            Decision::Action::kServe);
}

TEST_F(SchedulerTest, AmsRefusesNonApproximableReads) {
  core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme);
  core::LazyScheduler lazy = make_lazy(spec);
  lazy.set_ams_ready(true);
  lazy.on_enqueue(push(1, 0, 5, 0, AccessKind::kRead, /*approx=*/false));
  EXPECT_EQ(lazy.decide(queue_, BankView{0, false, kInvalidRow}, 100).action,
            Decision::Action::kServe);
}

TEST_F(SchedulerTest, CoverageCapStopsFreshDrops) {
  GpuConfig cfg = cfg_;
  cfg.scheme.coverage_cap = 0.5;
  core::SchemeSpec spec = core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg.scheme);
  core::LazyScheduler lazy(cfg.scheme, spec, cfg.banks_per_channel);
  lazy.set_ams_ready(true);
  lazy.on_enqueue(push(1, 0, 5, 0));
  lazy.on_enqueue(push(2, 0, 6, 0));

  Decision d = lazy.decide(queue_, BankView{0, false, kInvalidRow}, 10);
  ASSERT_EQ(d.action, Decision::Action::kDrop);
  lazy.on_drop(queue_.erase(d.req_id));
  // Coverage now 1/2 = cap: next candidate must be served, not dropped.
  d = lazy.decide(queue_, BankView{0, false, kInvalidRow}, 11);
  EXPECT_EQ(d.action, Decision::Action::kServe);
}

}  // namespace
}  // namespace lazydram
