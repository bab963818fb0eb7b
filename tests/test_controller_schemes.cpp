// Controller-level integration of the lazy schemes: DMS gating observed at
// the command engine, AMS drops flowing through the reply path, the
// controller-owned row-group drain, closed-row ablation behaviour and reply
// ordering.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "dram/address.hpp"
#include "mem/controller.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/window_sampler.hpp"

namespace lazydram {
namespace {

/// In-memory trace sink for asserting on emitted event sequences.
struct CaptureSink final : telemetry::TraceSink {
  std::vector<telemetry::TraceEvent> events;
  void on_event(const telemetry::TraceEvent& e) override { events.push_back(e); }
  void on_window(const telemetry::WindowSample&) override {}
};

class SchemeControllerTest : public ::testing::Test {
 protected:
  SchemeControllerTest() : mapper_(cfg_) { cfg_.validate(); }

  std::unique_ptr<MemoryController> make(const core::SchemeSpec& spec,
                                         RowPolicy policy = RowPolicy::kOpenRow,
                                         bool ams_ready = true) {
    std::unique_ptr<Scheduler> sched = core::make_scheduler(cfg_, spec);
    lazy_ = dynamic_cast<core::LazyScheduler*>(sched.get());
    auto mc = std::make_unique<MemoryController>(cfg_, 0, mapper_, std::move(sched),
                                                 policy);
    if (ams_ready) lazy_->set_ams_ready(true);
    return mc;
  }

  MemRequest read_at(BankId bank, RowId row, std::uint32_t col, bool approx = true) {
    MemRequest r;
    r.id = next_id_++;
    r.line_addr = mapper_.compose(0, bank, row, col * kLineBytes);
    r.kind = AccessKind::kRead;
    r.approximable = approx;
    return r;
  }

  unsigned drain(MemoryController& mc, Cycle until, unsigned* approx_replies = nullptr) {
    unsigned replies = 0;
    for (; now_ < until; ++now_) {
      mc.tick(now_);
      while (auto r = mc.pop_reply(now_)) {
        ++replies;
        if (approx_replies != nullptr && r->approximate) ++*approx_replies;
      }
    }
    return replies;
  }

  GpuConfig cfg_;
  AddressMapper mapper_;
  core::LazyScheduler* lazy_ = nullptr;
  RequestId next_id_ = 1;
  Cycle now_ = 0;
};

TEST_F(SchemeControllerTest, DmsDelaysFirstActivation) {
  // With DMS(200), a lone row-miss request is served only after aging.
  auto mc = make(core::make_static_dms_spec(200, cfg_.scheme));
  mc->enqueue(read_at(0, 5, 0), now_);
  drain(*mc, 199);
  EXPECT_EQ(mc->channel().activations(), 0u);  // Still gated.
  drain(*mc, 400);
  EXPECT_EQ(mc->channel().activations(), 1u);
  EXPECT_EQ(mc->reads_served(), 1u);
}

TEST_F(SchemeControllerTest, DmsDelayMergesLateArrivals) {
  auto mc = make(core::make_static_dms_spec(500, cfg_.scheme));
  mc->enqueue(read_at(0, 5, 0), now_);
  drain(*mc, 300);
  mc->enqueue(read_at(0, 5, 1), now_);  // Arrives while the first is gated.
  drain(*mc, 1500);
  mc->finalize();
  EXPECT_EQ(mc->reads_served(), 2u);
  EXPECT_EQ(mc->channel().activations(), 1u);  // One row opening served both.
}

TEST_F(SchemeControllerTest, AmsDropsGoThroughReplyPathMarkedApproximate) {
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme));
  mc->enqueue(read_at(1, 7, 0), now_);
  unsigned approx = 0;
  const unsigned replies = drain(*mc, 500, &approx);
  EXPECT_EQ(replies, 1u);
  EXPECT_EQ(approx, 1u);
  EXPECT_EQ(mc->reads_dropped(), 1u);
  EXPECT_EQ(mc->channel().activations(), 0u);  // Never touched DRAM.
}

TEST_F(SchemeControllerTest, AmsSkipsNonApproximableAndServesFromDram) {
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme));
  mc->enqueue(read_at(1, 7, 0, /*approx=*/false), now_);
  unsigned approx = 0;
  const unsigned replies = drain(*mc, 500, &approx);
  EXPECT_EQ(replies, 1u);
  EXPECT_EQ(approx, 0u);
  EXPECT_EQ(mc->reads_dropped(), 0u);
  EXPECT_EQ(mc->channel().activations(), 1u);
}

TEST_F(SchemeControllerTest, AmsNotReadyServesEverything) {
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme),
                 RowPolicy::kOpenRow, /*ams_ready=*/false);
  mc->enqueue(read_at(2, 3, 0), now_);
  drain(*mc, 500);
  EXPECT_EQ(mc->reads_dropped(), 0u);
  EXPECT_EQ(mc->reads_served(), 1u);
}

TEST_F(SchemeControllerTest, AmsDropsWholeGroupOnePerCycle) {
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme));
  CaptureSink sink;
  telemetry::Tracer tracer;
  tracer.set_sink(&sink);
  mc->set_tracer(&tracer);
  // Th_RBL = 8: a 3-request group qualifies and drains fully. The row-10
  // request on the same bank is outside the group: after the first drop
  // coverage is far above the 10% cap, so only the drain could drop it.
  for (std::uint32_t c = 0; c < 3; ++c) mc->enqueue(read_at(3, 9, c), now_);
  mc->enqueue(read_at(3, 10, 0), now_);
  drain(*mc, 500);
  EXPECT_EQ(mc->reads_dropped(), 3u);
  EXPECT_EQ(mc->reads_served(), 1u);
  EXPECT_EQ(mc->channel().activations(), 1u);  // Row 10 only.

  std::vector<Cycle> drop_cycles;
  for (const telemetry::TraceEvent& e : sink.events) {
    if (e.kind != telemetry::EventKind::kRowGroupDrop) continue;
    EXPECT_EQ(e.a, 9u);  // Every drop belongs to the admitted row group.
    drop_cycles.push_back(e.cycle);
  }
  const std::vector<Cycle> one_per_cycle{0, 1, 2};
  EXPECT_EQ(drop_cycles, one_per_cycle);
}

TEST_F(SchemeControllerTest, DrainDropsWholeRowGroupThenStops) {
  // With the coverage cap lifted, the row-6 request on the same bank is a
  // fresh AMS candidate of its own. The row-5 drain must drop its whole
  // group first and then retire, so row 6 is admitted afresh as a new group
  // rather than being swallowed by (or blocked behind) the row-5 drain.
  cfg_.scheme.coverage_cap = 1.0;
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme));
  CaptureSink sink;
  telemetry::Tracer tracer;
  tracer.set_sink(&sink);
  mc->set_tracer(&tracer);
  for (std::uint32_t c = 0; c < 3; ++c) mc->enqueue(read_at(0, 5, c), now_);
  mc->enqueue(read_at(0, 6, 0), now_);
  drain(*mc, 500);
  EXPECT_EQ(mc->reads_dropped(), 4u);
  EXPECT_EQ(mc->channel().activations(), 0u);

  std::vector<RowId> drop_rows;
  for (const telemetry::TraceEvent& e : sink.events) {
    if (e.kind == telemetry::EventKind::kRowGroupDrop)
      drop_rows.push_back(static_cast<RowId>(e.a));
  }
  const std::vector<RowId> group_then_next{5, 5, 5, 6};
  EXPECT_EQ(drop_rows, group_then_next);
}

TEST_F(SchemeControllerTest, PreciseReadArrivingMidDrainEndsTheDrain) {
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme));
  mc->enqueue(read_at(0, 5, 0), now_);
  mc->enqueue(read_at(0, 5, 1), now_);
  drain(*mc, 1);
  ASSERT_EQ(mc->reads_dropped(), 1u);  // The group was admitted.

  // A precise read for the draining row arrives: dropping it would hand a
  // precise read a predicted value. The drain must end, and the remaining
  // approximable read is served from DRAM alongside it.
  mc->enqueue(read_at(0, 5, 2, /*approx=*/false), now_);
  unsigned approx = 0;
  drain(*mc, 500, &approx);
  EXPECT_EQ(mc->reads_dropped(), 1u);
  EXPECT_EQ(approx, 0u);
  EXPECT_EQ(mc->reads_served(), 2u);
  EXPECT_EQ(mc->channel().activations(), 1u);
}

TEST_F(SchemeControllerTest, ApproximableArrivalJoinsTheDrain) {
  // DMS(200) + AMS(8): the group is admitted once its oldest member ages 200
  // cycles; a same-row approximable arrival then joins the drain at once,
  // with no aging of its own and no fresh coverage check.
  auto mc = make(core::make_combo_spec(200, 8, cfg_.scheme));
  mc->enqueue(read_at(0, 5, 0), now_);
  mc->enqueue(read_at(0, 5, 1), now_);
  while (mc->reads_dropped() == 0 && now_ < 500) drain(*mc, now_ + 1);
  ASSERT_EQ(mc->reads_dropped(), 1u);
  const Cycle admitted = now_ - 1;
  EXPECT_EQ(admitted, 200u);

  mc->enqueue(read_at(0, 5, 2), now_);
  drain(*mc, admitted + 3);
  EXPECT_EQ(mc->reads_dropped(), 3u);  // Dropped at admitted + 1 and + 2.
  EXPECT_EQ(mc->channel().activations(), 0u);
}

TEST_F(SchemeControllerTest, EmptiedDrainRetiresBeforeALaterArrival) {
  // Regression: a drain whose group just emptied must retire on the bank's
  // next visit, even though the bank's queue is empty (the command pass may
  // not skip it). A same-row approximable read arriving one cycle later is
  // then a fresh candidate: DMS ages it 200 cycles and, with coverage at
  // 2/3, AMS refuses it. Had the stale drain survived, it would swallow the
  // arrival on the very next cycle.
  auto mc = make(core::make_combo_spec(200, 8, cfg_.scheme));
  mc->enqueue(read_at(0, 5, 0), now_);
  mc->enqueue(read_at(0, 5, 1), now_);
  while (mc->reads_dropped() < 2 && now_ < 500) drain(*mc, now_ + 1);
  ASSERT_EQ(mc->reads_dropped(), 2u);
  ASSERT_EQ(mc->queue().size(), 0u);

  mc->enqueue(read_at(0, 5, 2), now_);
  drain(*mc, now_ + 150);
  EXPECT_EQ(mc->reads_dropped(), 2u);
  drain(*mc, now_ + 500);
  EXPECT_EQ(mc->reads_dropped(), 2u);
  EXPECT_EQ(mc->reads_served(), 1u);
}

TEST_F(SchemeControllerTest, AmsLeavesLargeGroupsToDram) {
  auto mc = make(core::make_static_ams_spec(2, cfg_.scheme));
  for (std::uint32_t c = 0; c < 5; ++c) mc->enqueue(read_at(4, 11, c), now_);
  drain(*mc, 1000);
  // Group of 5 > Th_RBL 2: all served by DRAM with one activation.
  EXPECT_EQ(mc->reads_dropped(), 0u);
  EXPECT_EQ(mc->reads_served(), 5u);
  mc->finalize();
  EXPECT_EQ(mc->channel().activations(), 1u);
}

TEST_F(SchemeControllerTest, DropPassInterleavesConcurrentDrains) {
  // Regression: the drop pass used to scan banks from 0 every cycle, so with
  // two row groups draining concurrently the lower-numbered bank drained
  // fully while the other starved (drop order 2,2,2,5,5,5). The pass now
  // rotates its start bank past each executed drop, like the command pass's
  // round-robin, so concurrent drains interleave.
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme));
  CaptureSink sink;
  telemetry::Tracer tracer;
  tracer.set_sink(&sink);
  mc->set_tracer(&tracer);

  // Precise filler reads keep prediction coverage far under the 10% cap so
  // every drop below is permitted (6 drops / 106 reads received = 5.7%).
  for (std::uint32_t i = 0; i < 100; ++i)
    mc->enqueue(read_at(i % 2, 1 + i / 2, i % 16, /*approx=*/false), now_);
  // Two drop-eligible row groups on different banks, enqueued back to back.
  for (std::uint32_t c = 0; c < 3; ++c) mc->enqueue(read_at(2, 7, c), now_);
  for (std::uint32_t c = 0; c < 3; ++c) mc->enqueue(read_at(5, 9, c), now_);

  drain(*mc, 500);
  EXPECT_EQ(mc->reads_dropped(), 6u);

  std::vector<std::int32_t> drop_banks;
  for (const telemetry::TraceEvent& e : sink.events)
    if (e.kind == telemetry::EventKind::kRowGroupDrop) drop_banks.push_back(e.bank);
  const std::vector<std::int32_t> interleaved{2, 5, 2, 5, 2, 5};
  EXPECT_EQ(drop_banks, interleaved);
}

TEST_F(SchemeControllerTest, ClosedRowPolicyPrechargesIdleRows) {
  core::SchemeSpec baseline;
  auto open_mc = make(baseline, RowPolicy::kOpenRow);
  open_mc->enqueue(read_at(0, 5, 0), now_);
  drain(*open_mc, 300);
  // Open-row: the row stays open after service.
  EXPECT_TRUE(open_mc->channel().bank(0).row_open());

  now_ = 0;
  auto closed_mc = make(baseline, RowPolicy::kClosedRow);
  closed_mc->enqueue(read_at(0, 5, 0), now_);
  drain(*closed_mc, 300);
  EXPECT_FALSE(closed_mc->channel().bank(0).row_open());
}

// --- The stable-answer cache ----------------------------------------------
//
// Each test below brings bank 0 to the same state: its one request was
// activated at cycle 0, the policy's answer (serve that row hit) is cached,
// and the CAS waits out tRCD. A tick then asks the policy nothing: the drop
// pass skips the bank and the command pass is held by its retry memo. One
// invalidation edge must make the next tick ask the policy again.

/// Serves each bank's oldest row hit, else its oldest request, always as a
/// stable answer. may_drop() holds, so the drop pass runs every cycle, but
/// it never drops. Reports the DMS delay and Th_RBL the test sets.
class StableServePolicy final : public Scheduler {
 public:
  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override {
    (void)now;
    if (bank.row_open)
      if (const MemRequest* hit = queue.oldest_for_row(bank.bank, bank.open_row))
        return Decision::serve_stable(hit->id);
    const MemRequest* oldest = queue.oldest_for_bank(bank.bank);
    return oldest == nullptr ? Decision::none() : Decision::serve_stable(oldest->id);
  }
  bool may_drop() const override { return true; }
  void fill_probe(telemetry::WindowProbe& probe) const override {
    probe.dms_delay = delay;
    probe.th_rbl = th_rbl;
  }

  Cycle delay = 0;
  unsigned th_rbl = 0;
};

class StableAnswerTest : public SchemeControllerTest {
 protected:
  /// A controller running StableServePolicy (kept in policy_), ticked
  /// through cycles 0-2 with one read on bank 0.
  std::unique_ptr<MemoryController> make_settled() {
    auto owned = std::make_unique<StableServePolicy>();
    policy_ = owned.get();
    auto mc = std::make_unique<MemoryController>(cfg_, 0, mapper_, std::move(owned));
    settle(*mc);
    return mc;
  }

  /// Enqueues one read on bank 0 and ticks cycles 0-2 (see above).
  void settle(MemoryController& mc) {
    EXPECT_GT(cfg_.timing.tRCD, 4u);
    mc.enqueue(read_at(0, 5, 0, /*approx=*/false), now_);
    tick(mc);  // Drop pass asks the policy; the command pass reuses it: ACT.
    EXPECT_EQ(mc.channel().activations(), 1u);
    EXPECT_EQ(mc.decisions_reused(), 1u);
    tick(mc);  // The ACT dropped the answer: asked again; the CAS waits.
    EXPECT_EQ(tick(mc), 0u) << "a settled bank must not reach the policy";
  }

  /// Ticks one cycle; returns the policy calls it made.
  std::uint64_t tick(MemoryController& mc) {
    const std::uint64_t before = mc.policy_decides();
    mc.tick(now_++);
    return mc.policy_decides() - before;
  }

  StableServePolicy* policy_ = nullptr;
};

TEST_F(StableAnswerTest, EnqueueToTheBankDropsItsAnswer) {
  auto mc = make_settled();
  mc->enqueue(read_at(3, 2, 0), now_);  // Another bank: bank 0 stays cached.
  EXPECT_EQ(tick(*mc), 1u);             // Only bank 3 is asked.
  EXPECT_EQ(tick(*mc), 0u);
  mc->enqueue(read_at(0, 5, 1), now_);
  EXPECT_EQ(tick(*mc), 1u);
}

TEST_F(StableAnswerTest, CommandToTheBankDropsItsAnswer) {
  auto mc = make_settled();
  // The CAS issues once tRCD has passed; the answer goes with it, and the
  // now empty bank has nothing left to ask about.
  while (mc->channel().energy().read_accesses() == 0) EXPECT_EQ(tick(*mc), 0u);
  EXPECT_EQ(mc->queue().size(), 0u);
  // settle() itself covers the ACT: the tick after it asked the policy.
  mc->enqueue(read_at(0, 9, 0), now_);  // A row miss on the open bank.
  EXPECT_EQ(tick(*mc), 1u);             // Asked and cached.
  while (mc->channel().bank(0).row_open()) EXPECT_EQ(tick(*mc), 0u);
  EXPECT_EQ(tick(*mc), 1u);  // The PRE dropped the answer.
}

TEST_F(StableAnswerTest, DmsDelayChangeDropsEveryAnswer) {
  auto mc = make_settled();
  policy_->delay = 64;
  EXPECT_EQ(tick(*mc), 1u);
  EXPECT_EQ(tick(*mc), 0u);
}

TEST_F(StableAnswerTest, ThRblChangeDropsEveryAnswer) {
  auto mc = make_settled();
  policy_->th_rbl = 3;
  EXPECT_EQ(tick(*mc), 1u);
  EXPECT_EQ(tick(*mc), 0u);
}

TEST_F(StableAnswerTest, DropAndDrainReachThePolicyAgain) {
  // A bank that drops holds no cached answer: the drain runs without the
  // policy, and the pass after the group empties asks the policy again.
  auto mc = make(core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg_.scheme));
  mc->enqueue(read_at(0, 7, 0), now_);
  mc->enqueue(read_at(0, 7, 1), now_);
  mc->enqueue(read_at(0, 9, 0, /*approx=*/false), now_);
  // The drop pass asks the policy and drops; the command pass meets the
  // drain, which gates the bank without asking.
  EXPECT_EQ(tick(*mc), 1u);
  EXPECT_EQ(mc->reads_dropped(), 1u);
  // The drain drops the second read without asking; the command pass
  // retires it and asks about row 9, whose ACT issues.
  EXPECT_EQ(tick(*mc), 1u);
  EXPECT_EQ(mc->reads_dropped(), 2u);
  EXPECT_EQ(mc->channel().activations(), 1u);
}

TEST_F(SchemeControllerTest, ReadLatencyAccountedFromEnqueueToData) {
  auto mc = make(core::SchemeSpec{});
  mc->enqueue(read_at(0, 1, 0), now_);
  drain(*mc, 200);
  ASSERT_EQ(mc->read_latency().count(), 1u);
  // ACT(tRCD) + RD(tCL) + burst is the minimum service time.
  const DramTiming& t = cfg_.timing;
  EXPECT_GE(mc->read_latency().mean(), t.tRCD + t.tCL + t.tBURST);
}

}  // namespace
}  // namespace lazydram
