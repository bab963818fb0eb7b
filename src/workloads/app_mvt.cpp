// MVT — matrix-vector product and transpose: y1 = A*x1, y2 = A^T*x2
// (Polybench).
//
// Table II classification: Group 2; High thrashing, Medium delay tolerance,
// High activation sensitivity, Low Th_RBL sensitivity, High error tolerance.
//
// Model: warp i handles row i (for y1) then column i (for y2). The row pass
// streams A[i][*] as 12-line tiles (healthy baseline locality); the column
// pass walks A[k][i] with a 3KB pitch — lone lines whose row mates are the
// *adjacent warps'* columns (i+/-1 share the same lines/chunks), arriving
// skewed: classic DMS-recoverable traffic (High activation sensitivity).
// Both classes sit in RBL(2-8) rows, so lowering Th_RBL below 8 has little
// to win (Low Th_RBL sensitivity). Smooth matrix data reduced over 768-term
// dot products makes approximation nearly invisible (High error tolerance).
#include "workloads/apps.hpp"

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kN = 768;              // A is kN x kN f32 (2.25MB).
constexpr unsigned kColStride = 2;        // Column pass samples every 2nd k.
constexpr unsigned kColSamples = kN / kColStride;

constexpr Addr kA = MiB(16);
constexpr Addr kX1 = MiB(48);
constexpr Addr kX2 = MiB(49);
constexpr Addr kY1 = MiB(52);
constexpr Addr kY2 = MiB(56);

constexpr std::uint16_t kDotCycles = 8;

class MvtWorkload final : public Workload {
 public:
  std::string name() const override { return "MVT"; }
  std::string description() const override {
    return "Matrix-vector product and transpose (Polybench)";
  }
  unsigned group() const override { return 2; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kHigh,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kHigh};
  }

  unsigned num_warps() const override { return kN; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Row pass: 2 x (12-line tile + x1 line + compute) = 6 steps.
    // Column pass: kColSamples x (A[k][i] line + compute) = 192 steps.
    constexpr unsigned kRowSteps = 6;
    constexpr unsigned kColSteps = (kColSamples / 4) * 2;
    constexpr unsigned kTotal = kRowSteps + kColSteps + 2;
    constexpr unsigned kPasses = 2;  // Iterative solver: two sweeps.
    if (step >= kPasses * kTotal) return false;
    step %= kTotal;

    const unsigned i = warp;

    if (step < kRowSteps) {
      const unsigned half = step / 3;
      switch (step % 3) {
        case 0:  // Half of A row i: 12 consecutive lines.
          op = wide_load(
              f32_addr(kA, static_cast<std::uint64_t>(i) * kN + half * (kN / 2)), 12,
              /*approximable=*/true);
          return true;
        case 1:  // x1 segment (L2-resident).
          op = gpu::WarpOp::load_line(f32_line(kX1, half * (kN / 2)), false);
          return true;
        default:
          op = gpu::WarpOp::compute(kDotCycles);
          return true;
      }
    }

    const unsigned s = step - kRowSteps;
    if (s < kColSteps) {
      const unsigned sample = (s / 2) * 4;
      if (s % 2 == 0) {
        // A[k][i]: the 3KB-pitch column walk, four samples per op so the
        // warp keeps several loads in flight (latency tolerance); warps
        // i-1/i+1 are row mates.
        op.begin_load(4, /*approx=*/true);
        for (unsigned b = 0; b < 4; ++b) {
          const unsigned k = (sample + b) * kColStride;
          op.addrs[b] = f32_line(kA, static_cast<std::uint64_t>(k % kN) * kN + i);
        }
        return true;
      }
      op = gpu::WarpOp::compute(2 * kDotCycles);
      return true;
    }

    if (step == kTotal - 2) {
      op = gpu::WarpOp::store_line(f32_line(kY1, i));
      return true;
    }
    op = gpu::WarpOp::store_line(f32_line(kY2, i));
    return true;
  }

  void init_memory(gpu::MemoryImage& image) const override {
    fill_smooth(image, kA, static_cast<std::uint64_t>(kN) * kN, 0.5, 5.0, 2.0);
    fill_smooth(image, kX1, kN, 0.3, 3.0, 1.0);
    fill_smooth(image, kX2, kN, 0.3, 5.0, 1.2);
  }

  void compute_output(gpu::MemView& view) const override {
    for (unsigned i = 0; i < kN; ++i) {
      double y1 = 0.0, y2 = 0.0;
      for (unsigned k = 0; k < kN; ++k) {
        y1 += static_cast<double>(
                  view.read_f32(f32_addr(kA, static_cast<std::uint64_t>(i) * kN + k))) *
              view.read_f32(f32_addr(kX1, k));
        y2 += static_cast<double>(
                  view.read_f32(f32_addr(kA, static_cast<std::uint64_t>(k) * kN + i))) *
              view.read_f32(f32_addr(kX2, k));
      }
      view.write_f32(f32_addr(kY1, i), static_cast<float>(y1));
      view.write_f32(f32_addr(kY2, i), static_cast<float>(y2));
    }
  }

  std::vector<AddrRange> output_ranges() const override {
    return {{kY1, kN * 4ull}, {kY2, kN * 4ull}};
  }

  std::vector<AddrRange> approximable_ranges() const override {
    return {{kA, static_cast<std::uint64_t>(kN) * kN * 4}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_mvt() { return std::make_unique<MvtWorkload>(); }

}  // namespace lazydram::workloads
