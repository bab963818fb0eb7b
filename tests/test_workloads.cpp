// Property tests over every application model (TEST_P across the registry):
// op-stream well-formedness, termination, annotation consistency, grid
// limits, functional-model determinism and zero-error-without-overlay.
#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "gpu/functional_memory.hpp"
#include "workloads/patterns.hpp"
#include "workloads/registry.hpp"

namespace lazydram::workloads {
namespace {

class WorkloadProperties : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Workload> wl_ = make_workload(GetParam());
};

TEST_P(WorkloadProperties, GridFitsOneWave) {
  const GpuConfig cfg;
  EXPECT_GT(wl_->num_warps(), 0u);
  EXPECT_LE(wl_->num_warps(), cfg.num_sms * cfg.max_warps_per_sm);
}

TEST_P(WorkloadProperties, GroupAndTargetsDeclared) {
  EXPECT_GE(wl_->group(), 1u);
  EXPECT_LE(wl_->group(), 4u);
  EXPECT_FALSE(wl_->name().empty());
  EXPECT_FALSE(wl_->description().empty());
  // Group 4 must be the low-error-tolerance apps and vice versa (Table II).
  EXPECT_EQ(wl_->group() == 4, wl_->targets().error_tolerance == Level::kLow);
}

TEST_P(WorkloadProperties, OpStreamsTerminateAndAreWellFormed) {
  // Sample a spread of warps; walk each stream to completion.
  const unsigned warps = wl_->num_warps();
  for (const unsigned warp :
       {0u, warps / 3, warps / 2, warps - 1}) {
    gpu::WarpOp op;
    unsigned steps = 0;
    bool saw_load = false;
    while (wl_->op_at(warp, steps, op)) {
      ++steps;
      ASSERT_LT(steps, 2'000'000u) << "op stream does not terminate";
      if (op.kind == gpu::WarpOp::Kind::kCompute) {
        EXPECT_GT(op.cycles, 0u);
      } else {
        ASSERT_GT(op.num_addrs, 0u);
        ASSERT_LE(op.num_addrs, 32u);
        saw_load |= op.kind == gpu::WarpOp::Kind::kLoad;
      }
    }
    EXPECT_GT(steps, 0u);
    EXPECT_TRUE(saw_load);
  }
}

TEST_P(WorkloadProperties, OpStreamsAreDeterministic) {
  gpu::WarpOp a, b;
  for (unsigned step = 0; step < 64; ++step) {
    const bool ra = wl_->op_at(1, step, a);
    const bool rb = wl_->op_at(1, step, b);
    ASSERT_EQ(ra, rb);
    if (!ra) break;
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.num_addrs, b.num_addrs);
    for (unsigned i = 0; i < a.num_addrs; ++i) EXPECT_EQ(a.addrs[i], b.addrs[i]);
  }
}

TEST_P(WorkloadProperties, ApproximableFlagsMatchAnnotatedRanges) {
  // Every load tagged approximable must target an annotated range.
  const unsigned warps = wl_->num_warps();
  for (const unsigned warp : {0u, warps - 1}) {
    gpu::WarpOp op;
    unsigned step = 0;
    while (wl_->op_at(warp, step++, op)) {
      if (op.kind != gpu::WarpOp::Kind::kLoad || !op.approximable) continue;
      for (unsigned i = 0; i < op.num_addrs; ++i)
        EXPECT_TRUE(wl_->is_approximable(op.addrs[i]))
            << wl_->name() << " tagged a load outside its annotated ranges";
    }
  }
}

TEST_P(WorkloadProperties, DeclaredRangesAreSane) {
  for (const AddrRange& r : wl_->approximable_ranges()) {
    EXPECT_GT(r.bytes, 0u);
    EXPECT_TRUE(r.contains(r.base));
    EXPECT_FALSE(r.contains(r.base + r.bytes));
  }
  EXPECT_FALSE(wl_->output_ranges().empty());
}

TEST_P(WorkloadProperties, ZeroErrorWithoutApproximation) {
  gpu::FunctionalMemory fmem;
  wl_->init_memory(fmem.image());
  EXPECT_DOUBLE_EQ(wl_->application_error(fmem), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadProperties,
                         ::testing::ValuesIn(all_workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(Registry, HasAllTwentyApps) {
  EXPECT_EQ(all_workload_names().size(), 20u);
  EXPECT_EQ(make_all_workloads().size(), 20u);
}

TEST(Registry, GroupPartitions) {
  // Fig. 12 population (groups 1-3) + group 4 = all apps.
  EXPECT_EQ(fig12_workload_names().size() + group4_workload_names().size(), 20u);
  for (const std::string& name : group4_workload_names())
    EXPECT_EQ(make_workload(name)->group(), 4u);
}


TEST(WarpOp, AssignmentOverwritesOnlyTheHeaderAndUsedLanes) {
  gpu::WarpOp op;
  op = wide_load(0x4000, 4, /*approximable=*/true);
  op = gpu::WarpOp::compute(3);
  EXPECT_EQ(op.kind, gpu::WarpOp::Kind::kCompute);
  EXPECT_EQ(op.cycles, 3u);
  EXPECT_EQ(op.num_addrs, 0u);
  EXPECT_FALSE(op.approximable);
  EXPECT_EQ(op.addrs[3], 0x4000 + 3 * kLineBytes);  // Lanes past num_addrs untouched.

  op = gpu::WarpOp::load_line(0x12345678, /*approximable=*/true);
  EXPECT_EQ(op.kind, gpu::WarpOp::Kind::kLoad);
  EXPECT_EQ(op.cycles, 1u);
  EXPECT_EQ(op.num_addrs, 1u);
  EXPECT_TRUE(op.approximable);
  EXPECT_EQ(op.addrs[0], line_base(0x12345678));
  EXPECT_EQ(op.addrs[1], 0x4000 + kLineBytes);

  op = gpu::WarpOp::compute(5);
  op = wide_store(0x8040, 3);
  EXPECT_EQ(op.kind, gpu::WarpOp::Kind::kStore);
  EXPECT_EQ(op.cycles, 1u);
  EXPECT_EQ(op.num_addrs, 3u);
  EXPECT_FALSE(op.approximable);
  for (unsigned i = 0; i < 3; ++i) EXPECT_EQ(op.addrs[i], 0x8000 + i * kLineBytes);
  EXPECT_EQ(op.addrs[3], 0x4000 + 3 * kLineBytes);
}

}  // namespace
}  // namespace lazydram::workloads
