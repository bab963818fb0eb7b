// 3MM — three chained matrix multiplications: E=A*B, F=C*D, G=E*F
// (Polybench).
//
// Table II classification: Group 3; LOW thrashing, High delay tolerance,
// High activation sensitivity, Low Th_RBL sensitivity, High error
// tolerance. Fig. 6(b): ~0.2% of read requests (RBL 1-2) cause ~45% of the
// row activations — DRAM traffic is tiny and compulsory, but what little
// exists is dominated by a handful of stragglers.
//
// Model: small matrices whose working set fits in the L2, streamed as tiles
// with very high arithmetic intensity — DRAM sees only compulsory fills
// plus rare L2-conflict re-fetches (the low-RBL stragglers). The reachable
// AMS coverage is therefore far below 10% (Group 3). Smooth inputs reduced
// through three chained contractions: High error tolerance.
#include "workloads/apps.hpp"

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kN = 160;  // All matrices kN x kN (100KB each).
constexpr unsigned kJBlocks = kN / 32;     // 5 column blocks.
constexpr unsigned kRowsPerWarp = 2;
constexpr unsigned kRepeats = 24;  // Iterative-refinement launches.
constexpr unsigned kWarpsPerStage = (kN / kRowsPerWarp) * kJBlocks;  // 400.

constexpr Addr kA = MiB(16);
constexpr Addr kB = MiB(17);
constexpr Addr kC = MiB(18);
constexpr Addr kD = MiB(19);
constexpr Addr kE = MiB(20);
constexpr Addr kF = MiB(21);
constexpr Addr kG = MiB(22);

struct Stage {
  Addr left, right, out;
};
constexpr Stage kStages[3] = {{kA, kB, kE}, {kC, kD, kF}, {kE, kF, kG}};

class ThreeMmWorkload final : public Workload {
 public:
  std::string name() const override { return "3MM"; }
  std::string description() const override {
    return "Three matrix multiplications G = (A*B)*(C*D) (Polybench)";
  }
  unsigned group() const override { return 3; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kLow,
            .delay_tolerance = Level::kHigh,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kHigh};
  }

  unsigned num_warps() const override { return 3 * kWarpsPerStage; }  // 1200.

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    const unsigned stage_idx = warp / kWarpsPerStage;
    const unsigned local = warp % kWarpsPerStage;
    const unsigned jb = local % kJBlocks;
    const unsigned i0 = (local / kJBlocks) * kRowsPerWarp;
    const Stage& st = kStages[stage_idx];

    // Per row: left-row tile (5 lines), right column strip (5 sampled
    // lines), two heavy compute bursts, store.
    constexpr unsigned kStepsPerRow = 5;
    constexpr unsigned kTotal = kRepeats * kRowsPerWarp * kStepsPerRow;
    if (step >= kTotal) return false;

    const unsigned i = i0 + (step / kStepsPerRow) % kRowsPerWarp;
    switch (step % kStepsPerRow) {
      case 0:  // Left matrix row i (160 floats = 5 lines).
        op = wide_load(f32_addr(st.left, static_cast<std::uint64_t>(i) * kN), 5,
                       /*approximable=*/true);
        return true;
      case 1: {  // Right strip: one line per 32 k (5 transactions).
        op.begin_load(kJBlocks, /*approx=*/true);
        for (unsigned s = 0; s < kJBlocks; ++s)
          op.addrs[s] =
              f32_line(st.right, (static_cast<std::uint64_t>(s) * 32) * kN + 32 * jb);
        return true;
      }
      case 2:
      case 3:  // Blocked FMA bursts (high arithmetic intensity).
        op = gpu::WarpOp::compute(160);
        return true;
      default:
        // Only the final refinement pass writes results back; earlier
        // passes keep their tiles in registers/L2 (cuts write churn to the
        // compulsory minimum, preserving 3MM's tiny-DRAM-footprint profile).
        if (step / kStepsPerRow >= (kRepeats - 1) * kRowsPerWarp) {
          op = gpu::WarpOp::store_line(
              f32_line(st.out, static_cast<std::uint64_t>(i) * kN + 32 * jb));
        } else {
          op = gpu::WarpOp::compute(4);
        }
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    const std::uint64_t n = static_cast<std::uint64_t>(kN) * kN;
    fill_smooth(image, kA, n, 0.3, 11.0, 1.0);
    fill_smooth(image, kB, n, 0.25, 13.0, 0.9);
    fill_smooth(image, kC, n, 0.3, 17.0, 1.1);
    fill_smooth(image, kD, n, 0.2, 19.0, 0.95);
  }

  void compute_output(gpu::MemView& view) const override {
    const auto matmul = [&](Addr l, Addr r, Addr o) {
      for (unsigned i = 0; i < kN; ++i)
        for (unsigned j = 0; j < kN; ++j) {
          double acc = 0.0;
          for (unsigned k = 0; k < kN; ++k)
            acc += static_cast<double>(
                       view.read_f32(f32_addr(l, static_cast<std::uint64_t>(i) * kN + k))) *
                   view.read_f32(f32_addr(r, static_cast<std::uint64_t>(k) * kN + j));
          view.write_f32(f32_addr(o, static_cast<std::uint64_t>(i) * kN + j),
                         static_cast<float>(acc));
        }
    };
    matmul(kA, kB, kE);
    matmul(kC, kD, kF);
    matmul(kE, kF, kG);
  }

  std::vector<AddrRange> output_ranges() const override {
    return {{kG, static_cast<std::uint64_t>(kN) * kN * 4}};
  }

  std::vector<AddrRange> approximable_ranges() const override {
    const std::uint64_t bytes = static_cast<std::uint64_t>(kN) * kN * 4;
    return {{kA, bytes}, {kB, bytes}, {kC, bytes}, {kD, bytes},
            {kE, bytes}, {kF, bytes}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_3mm() { return std::make_unique<ThreeMmWorkload>(); }

}  // namespace lazydram::workloads
