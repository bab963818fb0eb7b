// SCP — scalar (dot) products of many vector pairs (CUDA SDK).
//
// Table II classification: Group 1; High thrashing, Low delay tolerance,
// High activation sensitivity, High Th_RBL sensitivity, Medium error
// tolerance. Fig. 7(b)/Fig. 11's case-study app: most requests inside
// Th_RBL=8 sit at RBL(2-8), while >10% of all requests are RBL(1), so
// Dyn-AMS profits from lowering Th_RBL toward 1.
//
// Model: warp w reduces vector pair w. Per iteration it loads a 16-line tile
// of A and of B (vector loads: the tile's transactions issue back-to-back,
// landing 2-3 requests in each touched channel row — the RBL(2-8) bulk) and
// four scattered per-pair coefficient lines (the RBL(1) tail, >10% of
// requests), then runs a short dependent reduction burst (Low delay
// tolerance, the memory bus runs near saturation). Consecutive iterations
// and the neighbouring pair's vectors revisit the same 12KB row windows, so
// delaying consolidates activations (High activation sensitivity).
#include "workloads/apps.hpp"

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kPairs = 1200;     // One warp per vector pair.
constexpr unsigned kVecLines = 48;    // Lines per vector (48*32 = 1536 f32).
constexpr unsigned kTile = 16;        // Lines per vector load.
constexpr unsigned kIters = kVecLines / kTile;
constexpr unsigned kScatterPerIter = 4;
constexpr std::uint64_t kVecElems = static_cast<std::uint64_t>(kVecLines) * kF32PerLine;

constexpr Addr kA = MiB(16);      // kPairs vectors, contiguous.
constexpr Addr kB = MiB(96);      // kPairs vectors, contiguous.
constexpr Addr kCoef = MiB(176);  // Scattered coefficient table.
constexpr std::uint64_t kCoefElems = 1u << 19;  // 2MB of f32.
constexpr Addr kOut = MiB(208);   // One f32 per pair.

constexpr std::uint16_t kReduceCycles = 10;

class ScpWorkload final : public Workload {
 public:
  std::string name() const override { return "SCP"; }
  std::string description() const override {
    return "Scalar products of vector pairs (CUDA SDK)";
  }
  unsigned group() const override { return 1; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kHigh,
            .delay_tolerance = Level::kLow,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = true,
            .error_tolerance = Level::kMedium};
  }

  unsigned num_warps() const override { return kPairs; }

  static std::uint64_t coef_index(unsigned warp, unsigned slot) {
    return mix64((static_cast<std::uint64_t>(warp) << 16) | slot) % kCoefElems;
  }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per iteration: A tile, B tile, 4 scattered coefficient lines, compute.
    constexpr unsigned kStepsPerIter = 2 + kScatterPerIter + 1;
    constexpr unsigned kTotal = kIters * kStepsPerIter + 1;
    if (step >= kTotal) return false;

    if (step == kTotal - 1) {
      op = gpu::WarpOp::store_line(f32_line(kOut, warp));
      return true;
    }

    const unsigned iter = step / kStepsPerIter;
    const unsigned phase = step % kStepsPerIter;
    const Addr tile_off =
        (static_cast<Addr>(warp) * kVecLines + static_cast<Addr>(iter) * kTile) * kLineBytes;

    if (phase == 0) {
      op = wide_load(kA + tile_off, kTile, /*approximable=*/true);
      return true;
    }
    if (phase == 1) {
      op = wide_load(kB + tile_off, kTile, /*approximable=*/true);
      return true;
    }
    if (phase < 2 + kScatterPerIter) {
      op = gpu::WarpOp::load_line(
          f32_line(kCoef, coef_index(warp, iter * kScatterPerIter + phase - 2)),
          /*approximable=*/true);
      return true;
    }
    op = gpu::WarpOp::compute(kReduceCycles);
    return true;
  }

  void init_memory(gpu::MemoryImage& image) const override {
    const std::uint64_t n = static_cast<std::uint64_t>(kPairs) * kVecElems;
    fill_smooth(image, kA, n, 0.5, 5.0, 2.0);
    fill_smooth(image, kB, n, 0.4, 7.0, 1.5);
    // Slowly varying coefficients: a nearest-line prediction lands close,
    // keeping SCP in the paper's Medium error-tolerance band.
    fill_smooth(image, kCoef, kCoefElems, 0.35, 977.0, 1.0);
  }

  void compute_output(gpu::MemView& view) const override {
    float a[kVecElems];
    float b[kVecElems];
    for (unsigned p = 0; p < kPairs; ++p) {
      const std::uint64_t first = static_cast<std::uint64_t>(p) * kVecElems;
      view.read_f32s(f32_addr(kA, first), a, kVecElems);
      view.read_f32s(f32_addr(kB, first), b, kVecElems);
      double acc = 0.0;
      for (std::uint64_t e = 0; e < kVecElems; ++e)
        acc += static_cast<double>(a[e]) * static_cast<double>(b[e]);
      // Coefficients scale the result additively-averaged, so the output
      // error stays proportional to the fraction of approximated loads.
      double coef_sum = 0.0;
      constexpr unsigned kCoefCount = kIters * kScatterPerIter;
      for (unsigned s = 0; s < kCoefCount; ++s)
        coef_sum += static_cast<double>(view.read_f32(f32_addr(kCoef, coef_index(p, s))));
      view.write_f32(f32_addr(kOut, p), static_cast<float>(acc * (coef_sum / kCoefCount)));
    }
  }

  std::vector<AddrRange> output_ranges() const override {
    return {{kOut, static_cast<std::uint64_t>(kPairs) * 4}};
  }

  std::vector<AddrRange> approximable_ranges() const override {
    const std::uint64_t vec_bytes = static_cast<std::uint64_t>(kPairs) * kVecElems * 4;
    return {{kA, vec_bytes}, {kB, vec_bytes}, {kCoef, kCoefElems * 4}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_scp() { return std::make_unique<ScpWorkload>(); }

}  // namespace lazydram::workloads
