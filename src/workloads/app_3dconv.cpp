// 3DCONV — 3D convolution (Polybench).
//
// Table II classification: Group 2; High thrashing, Medium delay tolerance,
// High activation sensitivity, Low Th_RBL sensitivity, Medium error
// tolerance.
//
// Model: a 3x3x3 convolution over a 3D volume. Warps sweep x-rows in plane
// order: the in-plane rows (y-1, y, y+1; six lines) come as one
// multi-transaction op, while the six z-neighbour rows of the two adjacent
// planes are separate two-line loads whose row mates are the *other warps*
// working on neighbouring rows of the same planes — skewed arrivals that
// delay consolidates (High activation sensitivity). Unlike LPS, warps are
// assigned plane-contiguously, so plane traffic is dense and nearly all
// activations sit in RBL(2-8) rows (Low Th_RBL sensitivity). A 27-point
// weighted average over moderately varying data puts the output error in
// the Medium band.
#include "workloads/apps.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kNx = 128, kNy = 96, kNz = 48;  // ~2.25MB volume.
constexpr Addr kV = MiB(16);
constexpr Addr kOut = MiB(64);
constexpr std::uint64_t kCells = static_cast<std::uint64_t>(kNx) * kNy * kNz;

constexpr unsigned kWarps = 1152;
constexpr std::uint64_t kRows = kCells / kNx;  // 4608 x-rows.
constexpr std::uint64_t kRowsPerWarp = kRows / kWarps;

constexpr std::uint64_t cell_index(unsigned x, unsigned y, unsigned z) {
  return (static_cast<std::uint64_t>(z) * kNy + y) * kNx + x;
}

class Conv3dWorkload final : public Workload {
 public:
  std::string name() const override { return "3DCONV"; }
  std::string description() const override { return "3D convolution (Polybench)"; }
  unsigned group() const override { return 2; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kHigh,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kMedium};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per x-row: in-plane op, z-1 rows op, z+1 rows op, compute, store.
    constexpr unsigned kStepsPerRow = 5;
    const std::uint64_t total = kRowsPerWarp * kStepsPerRow;
    if (step >= total) return false;

    const std::uint64_t iter = step / kStepsPerRow;
    const unsigned phase = step % kStepsPerRow;
    // Plane-contiguous assignment: warp w owns rows [w*rpw, (w+1)*rpw).
    const std::uint64_t row = static_cast<std::uint64_t>(warp) * kRowsPerWarp + iter;
    const unsigned y = static_cast<unsigned>(row % kNy);
    const unsigned z = static_cast<unsigned>(row / kNy);
    const unsigned ym = y > 0 ? y - 1 : 0, yp = std::min(kNy - 1, y + 1);
    const unsigned zm = z > 0 ? z - 1 : 0, zp = std::min(kNz - 1, z + 1);

    // An x-row is kNx*4 = 512B = 4 lines; fetch the first 2 lines of each of
    // the three y-rows of plane `zz` as one 6-transaction op.
    const auto load_rows = [&](unsigned zz) {
      op.begin_load(6, /*approx=*/true);
      unsigned n = 0;
      for (unsigned yy : {ym, y, yp}) {
        const Addr base = f32_line(kV, cell_index(0, yy, zz));
        op.addrs[n++] = base;
        op.addrs[n++] = base + kLineBytes;
      }
    };

    switch (phase) {
      case 0:  // In-plane: y-1, y, y+1 rows of plane z.
        load_rows(z);
        return true;
      case 1:  // The three rows of plane z-1.
        load_rows(zm);
        return true;
      case 2:  // The three rows of plane z+1.
        load_rows(zp);
        return true;
      case 3:
        op = gpu::WarpOp::compute(14);
        return true;
      default:
        op = wide_store(f32_line(kOut, cell_index(0, y, z)), 4);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    for (unsigned z = 0; z < kNz; ++z)
      for (unsigned y = 0; y < kNy; ++y)
        for (unsigned x = 0; x < kNx; ++x) {
          // Smooth base with per-cell ripple: Medium prediction error.
          const double v = 4.0 + 2.0 * std::sin(0.09 * x + 0.04 * z) +
                           0.8 * mix_unit(cell_index(x, y, z) * 0x9e37u);
          image.write_f32(f32_addr(kV, cell_index(x, y, z)), static_cast<float>(v));
        }
  }

  void compute_output(gpu::MemView& view) const override {
    const auto clamp = [](int v, int hi) { return std::max(0, std::min(hi - 1, v)); };
    for (unsigned z = 0; z < kNz; ++z)
      for (unsigned y = 0; y < kNy; ++y)
        for (unsigned x = 0; x < kNx; ++x) {
          double acc = 0.0;
          for (int dz = -1; dz <= 1; ++dz)
            for (int dy = -1; dy <= 1; ++dy)
              for (int dx = -1; dx <= 1; ++dx) {
                const double w =
                    1.0 / (1.0 + std::abs(dx) + std::abs(dy) + std::abs(dz));
                acc += w * view.read_f32(f32_addr(
                               kV, cell_index(static_cast<unsigned>(clamp(
                                                  static_cast<int>(x) + dx, kNx)),
                                              static_cast<unsigned>(clamp(
                                                  static_cast<int>(y) + dy, kNy)),
                                              static_cast<unsigned>(clamp(
                                                  static_cast<int>(z) + dz, kNz)))));
              }
          view.write_f32(f32_addr(kOut, cell_index(x, y, z)), static_cast<float>(acc / 27.0));
        }
  }

  std::vector<AddrRange> output_ranges() const override { return {{kOut, kCells * 4}}; }

  std::vector<AddrRange> approximable_ranges() const override {
    return {{kV, kCells * 4}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_3dconv() { return std::make_unique<Conv3dWorkload>(); }

}  // namespace lazydram::workloads
