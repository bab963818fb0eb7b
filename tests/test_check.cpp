// Verification-layer tests: the runtime protocol checker (one test per
// violation class, driven directly through the observation hooks), the
// checker attached to a real MemoryController (clean legal streams, strict
// mode catching an injected illegal command), the golden reference model on
// handcrafted recordings, and the differential harness on a real workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/golden.hpp"
#include "check/mode.hpp"
#include "check/recorder.hpp"
#include "common/config.hpp"
#include "common/knobs.hpp"
#include "core/scheduler_registry.hpp"
#include "dram/address.hpp"
#include "mem/controller.hpp"
#include "sim/diff.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

using check::CheckerOptions;
using check::CheckMode;
using check::ProtocolChecker;
using check::ViolationKind;
using dram::CommandKind;

TEST(CheckModeParse, KnownAndUnknownValues) {
  EXPECT_EQ(check::parse_check_mode(""), CheckMode::kOff);
  EXPECT_EQ(check::parse_check_mode("off"), CheckMode::kOff);
  EXPECT_EQ(check::parse_check_mode("log"), CheckMode::kLog);
  EXPECT_EQ(check::parse_check_mode("strict"), CheckMode::kStrict);
  EXPECT_EQ(check::parse_check_mode("bogus"), CheckMode::kOff);
  EXPECT_STREQ(check::check_mode_name(CheckMode::kStrict), "strict");
}

TEST(ParseCheckFlag, ArgvParsing) {
  const auto parse = [](std::vector<const char*> args, std::string* error) {
    knobs::Cli cli(knobs::bench_rows());
    const bool ok =
        cli.parse(static_cast<int>(args.size()), const_cast<char**>(args.data()), error);
    return ok ? cli.get(knobs::kCheck).text : "<error>";
  };
  ::unsetenv("LAZYDRAM_CHECK");
  std::string error;
  EXPECT_EQ(parse({"prog", "--check", "strict"}, &error), "strict");
  EXPECT_EQ(parse({"prog", "--jobs", "2"}, &error), "off");  // The row default.
  EXPECT_EQ(parse({"prog", "--check"}, &error), "<error>");
  EXPECT_NE(error.find("--check needs a value"), std::string::npos) << error;
  EXPECT_EQ(parse({"prog", "--check", "bogus"}, &error), "<error>");
  EXPECT_NE(error.find("--check 'bogus'"), std::string::npos) << error;
  ::setenv("LAZYDRAM_CHECK", "log", 1);
  EXPECT_EQ(parse({"prog"}, &error), "log");
  EXPECT_EQ(parse({"prog", "--check", "strict"}, &error), "strict");  // Flag beats env.
  ::unsetenv("LAZYDRAM_CHECK");
}

/// Drives a ProtocolChecker directly through its hooks with a hand-built
/// pending queue. Timing tests default to hit_first=false so a scripted PRE
/// is judged on timing alone (the policy check has its own test).
class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest() : mapper_(cfg_), queue_(32, cfg_.banks_per_channel) {}

  static GpuConfig make_cfg() {
    GpuConfig c;
    c.validate();
    return c;
  }

  CheckerOptions log_opts(bool hit_first = false, bool ams_allowed = false) {
    CheckerOptions o;
    o.mode = CheckMode::kLog;
    o.hit_first = hit_first;
    o.ams_allowed = ams_allowed;
    return o;
  }

  const MemRequest& push(RequestId id, BankId bank, RowId row, std::uint32_t col,
                         AccessKind kind = AccessKind::kRead, bool approx = false) {
    MemRequest r;
    r.id = id;
    r.line_addr = mapper_.compose(0, bank, row, col * kLineBytes);
    r.kind = kind;
    r.approximable = approx;
    r.loc = mapper_.map(r.line_addr);
    queue_.push(r);
    return *queue_.find(id);
  }

  static bool has_kind(const ProtocolChecker& ck, ViolationKind kind) {
    return std::any_of(ck.violations().begin(), ck.violations().end(),
                       [kind](const check::Violation& v) { return v.kind == kind; });
  }

  GpuConfig cfg_ = make_cfg();
  AddressMapper mapper_;
  PendingQueue queue_;
};

TEST_F(CheckerTest, LegalActThenCasIsClean) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 2, 5, 0);
  ck.on_command(CommandKind::kActivate, 2, 5, 0, queue_);
  ck.on_command(CommandKind::kRead, 2, 5, 12, queue_);  // Exactly tRCD later.
  EXPECT_EQ(ck.violation_count(), 0u);
  EXPECT_EQ(ck.commands_checked(), 2u);
}

TEST_F(CheckerTest, CasOnClosedBankIsBankState) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 2, 5, 0);
  ck.on_command(CommandKind::kRead, 2, 5, 10, queue_);
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kBankState);
}

TEST_F(CheckerTest, CasBeforeTrcd) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 1, 0);
  ck.on_command(CommandKind::kActivate, 0, 1, 0, queue_);
  ck.on_command(CommandKind::kRead, 0, 1, 5, queue_);  // tRCD bound is 12.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTRcd);
}

TEST_F(CheckerTest, ActBeforeTrp) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 5, 0);
  ck.on_command(CommandKind::kActivate, 0, 5, 0, queue_);
  ck.on_command(CommandKind::kRead, 0, 5, 12, queue_);
  ck.on_command(CommandKind::kPrecharge, 0, 5, 30, queue_);  // tRAS/rtp ok.
  // tRP bound is 42; tRC bound (40) is already met, isolating kTRp.
  ck.on_command(CommandKind::kActivate, 0, 5, 41, queue_);
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTRp);
}

TEST_F(CheckerTest, ActBeforeTrc) {
  // Stretch tRC past tRP + PRE time so the tRC bound is the only one broken.
  cfg_.timing.tRC = 60;
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 5, 0);
  ck.on_command(CommandKind::kActivate, 0, 5, 0, queue_);
  ck.on_command(CommandKind::kPrecharge, 0, 5, 28, queue_);  // tRP bound 40.
  ck.on_command(CommandKind::kActivate, 0, 5, 45, queue_);   // tRC bound 60.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTRc);
}

TEST_F(CheckerTest, PreBeforeTras) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 5, 0);
  ck.on_command(CommandKind::kActivate, 0, 5, 0, queue_);
  ck.on_command(CommandKind::kPrecharge, 0, 5, 10, queue_);  // tRAS bound 28.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTRas);
}

TEST_F(CheckerTest, BackToBackCasBreaksTccd) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 5, 0);
  push(2, 0, 5, 1);
  ck.on_command(CommandKind::kActivate, 0, 5, 0, queue_);
  ck.on_command(CommandKind::kRead, 0, 5, 12, queue_);
  ck.on_command(CommandKind::kRead, 0, 5, 13, queue_);  // tCCD bound 14.
  EXPECT_TRUE(has_kind(ck, ViolationKind::kTCcd));
}

TEST_F(CheckerTest, ActActAcrossBanksBreaksTrrd) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 1, 0);
  push(2, 1, 1, 0);
  ck.on_command(CommandKind::kActivate, 0, 1, 0, queue_);
  ck.on_command(CommandKind::kActivate, 1, 1, 3, queue_);  // tRRD bound 6.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTRrd);
}

TEST_F(CheckerTest, FifthActInsideTfawWindow) {
  cfg_.timing.tFAW = 32;
  ProtocolChecker ck(cfg_, 0, log_opts());
  for (BankId b = 0; b < 5; ++b) push(b + 1, b, 1, 0);
  // Four ACTs at tRRD spacing, then a fifth inside the 32-cycle window.
  for (BankId b = 0; b < 4; ++b)
    ck.on_command(CommandKind::kActivate, b, 1, b * 6, queue_);
  EXPECT_EQ(ck.violation_count(), 0u);
  ck.on_command(CommandKind::kActivate, 4, 1, 24, queue_);  // Window ends at 32.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTFaw);
}

TEST_F(CheckerTest, PreBeforeWriteRecovery) {
  cfg_.timing.tRAS = 1;  // Keep tRAS out of the way; isolate the tWR bound.
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 3, 0, AccessKind::kWrite);
  ck.on_command(CommandKind::kActivate, 0, 3, 0, queue_);
  // WR@12: data ends at 12+4+4=20, so the tWR bound is 32.
  ck.on_command(CommandKind::kWrite, 0, 3, 12, queue_);
  ck.on_command(CommandKind::kPrecharge, 0, 3, 30, queue_);
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTWr);
}

TEST_F(CheckerTest, ReadAfterWriteBeforeTcdlr) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 3, 0, AccessKind::kWrite);
  push(2, 0, 3, 1);
  ck.on_command(CommandKind::kActivate, 0, 3, 0, queue_);
  ck.on_command(CommandKind::kWrite, 0, 3, 12, queue_);  // tCDLR bound 25.
  ck.on_command(CommandKind::kRead, 0, 3, 20, queue_);
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kTCdlr);
}

TEST_F(CheckerTest, ReadToWriteTurnaroundBusConflict) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 3, 0);
  push(2, 0, 3, 1, AccessKind::kWrite);
  ck.on_command(CommandKind::kActivate, 0, 3, 0, queue_);
  // RD@12 occupies the data bus until 28; WR@14 is tCCD-legal but its burst
  // would start at 18 < 28 + 2 (turnaround).
  ck.on_command(CommandKind::kRead, 0, 3, 12, queue_);
  ck.on_command(CommandKind::kWrite, 0, 3, 14, queue_);
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kBusConflict);
}

TEST_F(CheckerTest, TwoCommandsInOneCycle) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  push(1, 0, 1, 0);
  push(2, 1, 1, 0);
  ck.on_command(CommandKind::kActivate, 0, 1, 10, queue_);
  ck.on_command(CommandKind::kActivate, 1, 1, 10, queue_);
  EXPECT_TRUE(has_kind(ck, ViolationKind::kCommandBus));
}

TEST_F(CheckerTest, PreBypassingPendingRowHit) {
  ProtocolChecker ck(cfg_, 0, log_opts(/*hit_first=*/true));
  push(1, 0, 7, 0);
  push(2, 0, 7, 1);
  ck.on_command(CommandKind::kActivate, 0, 7, 0, queue_);
  ck.on_command(CommandKind::kRead, 0, 7, 12, queue_);
  // Request 2 still wants row 7: a hit-first scheduler must not close it.
  ck.on_command(CommandKind::kPrecharge, 0, 7, 28, queue_);
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kRowHitBypassed);
}

TEST_F(CheckerTest, ActWithoutPendingWork) {
  ProtocolChecker ck(cfg_, 0, log_opts());
  ck.on_command(CommandKind::kActivate, 0, 9, 0, queue_);  // Queue is empty.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kActWithoutWork);
}

TEST_F(CheckerTest, DropUnderNonAmsScheme) {
  ProtocolChecker ck(cfg_, 0, log_opts(false, /*ams_allowed=*/false));
  const MemRequest& r = push(1, 0, 1, 0, AccessKind::kRead, /*approx=*/true);
  ck.on_enqueue(r, 0);
  ck.on_drop(r, 5, queue_);
  EXPECT_TRUE(has_kind(ck, ViolationKind::kDropNotApproximable));
}

TEST_F(CheckerTest, DropOfNonApproximableRead) {
  ProtocolChecker ck(cfg_, 0, log_opts(false, /*ams_allowed=*/true));
  const MemRequest& r = push(1, 0, 1, 0, AccessKind::kRead, /*approx=*/false);
  ck.on_enqueue(r, 0);
  ck.on_drop(r, 5, queue_);
  EXPECT_TRUE(has_kind(ck, ViolationKind::kDropNotApproximable));
}

TEST_F(CheckerTest, NewGroupDropAtCoverageCap) {
  ProtocolChecker ck(cfg_, 0, log_opts(false, /*ams_allowed=*/true));
  // 10 approximable reads received; after one drop coverage is exactly the
  // 10% cap, so the next *new-group* drop must be refused.
  const MemRequest& a = push(1, 0, 1, 0, AccessKind::kRead, true);
  const MemRequest& b = push(2, 1, 2, 0, AccessKind::kRead, true);
  ck.on_enqueue(a, 0);
  ck.on_enqueue(b, 0);
  for (RequestId id = 3; id <= 10; ++id) {
    ck.on_enqueue(push(id, 2, 3, static_cast<std::uint32_t>(id)), 0);
  }
  ck.on_drop(a, 100, queue_);  // Coverage before: 0/10 — fine.
  EXPECT_EQ(ck.violation_count(), 0u);
  ck.on_drop(b, 101, queue_);  // Coverage before: 1/10 >= 0.10.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kCoverageExceeded);
}

TEST_F(CheckerTest, ContinuationDropsAreCoverageExempt) {
  ProtocolChecker ck(cfg_, 0, log_opts(false, /*ams_allowed=*/true));
  const MemRequest& a = push(1, 0, 1, 0, AccessKind::kRead, true);
  const MemRequest& b = push(2, 0, 1, 1, AccessKind::kRead, true);
  ck.on_enqueue(a, 0);
  ck.on_enqueue(b, 0);
  ck.on_drop(a, 100, queue_);  // Admits the (bank 0, row 1) group.
  // Coverage is now 1/2 — far past the cap — but the group was admitted as a
  // whole, so draining it is not a violation.
  ck.on_drop(b, 101, queue_);
  EXPECT_EQ(ck.violation_count(), 0u);
  // A late approximable arrival for the still-draining row joins the drain
  // (the scheduler clears its drain state lazily), so this too is exempt.
  const MemRequest& late = push(3, 0, 1, 2, AccessKind::kRead, true);
  ck.on_enqueue(late, 102);
  ck.on_drop(late, 103, queue_);
  EXPECT_EQ(ck.violation_count(), 0u);
}

TEST_F(CheckerTest, NonApproximableArrivalEndsDrain) {
  ProtocolChecker ck(cfg_, 0, log_opts(false, /*ams_allowed=*/true));
  const MemRequest& a = push(1, 0, 1, 0, AccessKind::kRead, true);
  ck.on_enqueue(a, 0);
  ck.on_drop(a, 100, queue_);
  EXPECT_EQ(ck.violation_count(), 0u);
  // A write to the draining row ends the drain; the next drop to that row is
  // a new-group drop again and must pass the full criteria (it fails both:
  // coverage 1/2 >= cap, and the group now contains a write).
  const MemRequest& w = push(2, 0, 1, 1, AccessKind::kWrite);
  ck.on_enqueue(w, 101);
  const MemRequest& c = push(3, 0, 1, 2, AccessKind::kRead, true);
  ck.on_enqueue(c, 102);
  ck.on_drop(c, 103, queue_);
  EXPECT_TRUE(has_kind(ck, ViolationKind::kCoverageExceeded));
  EXPECT_TRUE(has_kind(ck, ViolationKind::kDropNotApproximable));
}

TEST_F(CheckerTest, TwoDropsInOneCycle) {
  ProtocolChecker ck(cfg_, 0, log_opts(false, /*ams_allowed=*/true));
  const MemRequest& a = push(1, 0, 1, 0, AccessKind::kRead, true);
  const MemRequest& b = push(2, 1, 2, 0, AccessKind::kRead, true);
  ck.on_enqueue(a, 0);
  ck.on_enqueue(b, 0);
  // Plenty of received reads keep both drops under the coverage cap (spread
  // over rows: a 2KB row holds only 16 lines).
  for (RequestId id = 3; id <= 30; ++id)
    ck.on_enqueue(push(id, 2, 3 + id / 16, static_cast<std::uint32_t>(id % 16)), 0);
  ck.on_drop(a, 50, queue_);
  ck.on_drop(b, 50, queue_);
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kDropBus);
}

TEST_F(CheckerTest, StarvationReportedOncePerRequest) {
  CheckerOptions opts = log_opts();
  opts.starvation_bound = 1000;
  ProtocolChecker ck(cfg_, 0, opts);
  MemRequest r;
  r.id = 1;
  r.line_addr = mapper_.compose(0, 0, 1, 0);
  r.enqueue_cycle = 0;
  r.loc = mapper_.map(r.line_addr);
  queue_.push(r);
  ck.on_tick(queue_, 1000);  // Exactly at the bound: still fine.
  EXPECT_EQ(ck.violation_count(), 0u);
  ck.on_tick(queue_, 1001);
  ck.on_tick(queue_, 1002);  // Same wedged request: not re-reported.
  ASSERT_EQ(ck.violation_count(), 1u);
  EXPECT_EQ(ck.violations().front().kind, ViolationKind::kStarvation);
}

TEST_F(CheckerTest, StrictModeThrowsOnFirstViolation) {
  CheckerOptions opts = log_opts();
  opts.mode = CheckMode::kStrict;
  ProtocolChecker ck(cfg_, 0, opts);
  EXPECT_THROW(ck.on_command(CommandKind::kRead, 0, 1, 10, queue_),
               check::ViolationError);
}

// --- Checker attached to a real controller ---

class CheckedControllerTest : public ::testing::Test {
 protected:
  CheckedControllerTest()
      : mapper_(cfg_),
        mc_(cfg_, /*channel=*/0, mapper_, core::make_scheduler(cfg_, core::SchemeSpec{})) {}

  static GpuConfig make_cfg() {
    GpuConfig c;
    c.policy.name = "frfcfs";
    c.validate();
    return c;
  }

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

  GpuConfig cfg_ = make_cfg();
  AddressMapper mapper_;
  MemoryController mc_;
  Cycle now_ = 0;
  RequestId next_id_ = 1;
};

TEST_F(CheckedControllerTest, LegalMixedStreamHasNoViolations) {
  CheckerOptions opts;
  opts.mode = CheckMode::kLog;
  opts.hit_first = true;  // FR-FCFS serves hits first.
  ProtocolChecker ck(cfg_, 0, opts);
  mc_.set_checker(&ck);

  // Reads and writes across several banks and conflicting rows, staggered so
  // arrivals land mid-service too.
  for (BankId b = 0; b < 8; ++b)
    for (std::uint32_t c = 0; c < 4; ++c) mc_.enqueue(request(b, 3, c), now_);
  run(100);
  for (BankId b = 0; b < 8; ++b) {
    mc_.enqueue(request(b, 4, 0, AccessKind::kWrite), now_);
    mc_.enqueue(request(b, 3, 8), now_);  // Back to the earlier row.
  }
  run(5000);

  EXPECT_TRUE(mc_.idle());
  EXPECT_GT(ck.commands_checked(), 0u);
  EXPECT_EQ(ck.violation_count(), 0u);
}

TEST_F(CheckedControllerTest, InjectedTrcdViolationThrowsInStrictMode) {
  CheckerOptions opts;
  opts.mode = CheckMode::kStrict;
  ProtocolChecker ck(cfg_, 0, opts);
  mc_.set_checker(&ck);

  mc_.enqueue(request(2, 5, 0), now_);  // Pending work makes the ACT legal.
  mc_.inject_command_for_test(CommandKind::kActivate, 2, 5, 200);
  EXPECT_EQ(ck.violation_count(), 0u);
  // A CAS one cycle after the ACT violates tRCD (bound 212) and must throw.
  EXPECT_THROW(mc_.inject_command_for_test(CommandKind::kRead, 2, 5, 201),
               check::ViolationError);
  EXPECT_EQ(ck.violation_count(), 1u);
}

// --- Golden reference model on handcrafted recordings ---

TEST(GoldenModel, TwoSameRowReadsShareOneActivation) {
  GpuConfig cfg;
  cfg.validate();
  check::ChannelRecording rec;
  rec.arrivals = {{1, 0, 5, 0, true, false}, {2, 0, 5, 0, true, false}};
  rec.last_cycle = 0;

  const check::GoldenTimeline tl = check::golden_replay(rec, cfg);
  ASSERT_TRUE(tl.completed);
  ASSERT_EQ(tl.entries.size(), 2u);

  // Arrivals at cycle 0 become schedulable at 1: ACT@1, so the first CAS is
  // legal at 1 + tRCD = 13 and its data burst spans 25..29 (tCL 12, tBURST
  // 4). The second CAS is tCCD-legal at 15 but the shared data bus holds it
  // to 17 (burst 29..33).
  const check::GoldenEntry& first = tl.entries.at(1);
  EXPECT_EQ(first.outcome, check::GoldenOutcome::kServed);
  EXPECT_EQ(first.cas_cycle, 13u);
  EXPECT_EQ(first.done_cycle, 29u);
  const check::GoldenEntry& second = tl.entries.at(2);
  EXPECT_EQ(second.outcome, check::GoldenOutcome::kServed);
  EXPECT_EQ(second.cas_cycle, 17u);
  EXPECT_EQ(second.done_cycle, 33u);
}

TEST(GoldenModel, RecordedDropIsReplayedNotServed) {
  GpuConfig cfg;
  cfg.validate();
  check::ChannelRecording rec;
  rec.arrivals = {{1, 0, 5, 0, true, true}};
  rec.drops = {{1, 7}};
  rec.last_cycle = 7;

  const check::GoldenTimeline tl = check::golden_replay(rec, cfg);
  ASSERT_TRUE(tl.completed);
  ASSERT_EQ(tl.entries.size(), 1u);
  const check::GoldenEntry& e = tl.entries.at(1);
  EXPECT_EQ(e.outcome, check::GoldenOutcome::kDropped);
  EXPECT_EQ(e.drop_cycle, 7u);
}

TEST(GoldenModel, DmsDelayGatesMissAge) {
  GpuConfig cfg;
  cfg.validate();
  check::ChannelRecording rec;
  rec.dms_enabled = true;
  rec.arrivals = {{1, 0, 5, 0, true, false}};
  rec.delay_changes = {{0, 100}};  // Requests must age 100 cycles.
  rec.last_cycle = 0;

  const check::GoldenTimeline tl = check::golden_replay(rec, cfg);
  ASSERT_TRUE(tl.completed);
  // The ACT waits for the age gate at cycle 100, so the CAS lands at 112.
  EXPECT_EQ(tl.entries.at(1).cas_cycle, 112u);
}

// --- Differential harness end to end ---

TEST(DiffHarness, BaselineMatchesGolden) {
  sim::DiffHarness harness;
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kBaseline, GpuConfig{}.scheme);
  const sim::DiffResult r = harness.run("SCP", spec);
  EXPECT_TRUE(r.ok()) << sim::DiffHarness::format_divergence(r);
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(sim::DiffHarness::format_divergence(r), "");
}

TEST(DiffHarness, DynComboMatchesGolden) {
  // Dyn-DMS+AMS exercises every replayed input class: drops, drop gates and
  // a changing DMS delay timeline.
  sim::DiffHarness harness;
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, GpuConfig{}.scheme);
  const sim::DiffResult r = harness.run("SCP", spec, CheckMode::kLog);
  EXPECT_TRUE(r.ok()) << sim::DiffHarness::format_divergence(r);
  EXPECT_GT(r.requests, 0u);
}

TEST(SimulatorCheck, StrictRunOfCleanSchemeCompletes) {
  // End-to-end wiring: RunConfig.check = "strict" arms per-channel checkers
  // inside simulate(); a healthy run must complete without throwing.
  const auto wl = workloads::make_workload("SCP");
  sim::RunConfig config;
  config.spec = core::make_scheme_spec(core::SchemeKind::kDynCombo, GpuConfig{}.scheme);
  config.check = "strict";
  const sim::RunMetrics m = sim::simulate(*wl, config);
  EXPECT_GT(m.ipc, 0.0);
}

}  // namespace
}  // namespace lazydram
