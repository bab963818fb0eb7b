// srad — speckle-reducing anisotropic diffusion (Rodinia).
//
// Table II classification: Group 4; High thrashing, Medium delay tolerance,
// High activation sensitivity, Low Th_RBL sensitivity, Low error tolerance.
//
// Model: one diffusion step over a speckled (noisy) 512x512 image. Warps
// sweep image rows in a block-cyclic order: each step fetches the centre
// row segment plus its N/S neighbours (one op), and the E/W halo lines of
// the *previous* sweep's coefficient field — lone reads into rows whose
// mates belong to warps several sweeps behind (High activation
// sensitivity). The diffusion coefficient divides by local variance, so
// speckle noise amplifies any value perturbation (Low error tolerance).
#include "workloads/apps.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kW = 512, kH = 512;  // 1MB f32 image.
constexpr Addr kImg = MiB(16);
constexpr Addr kCoef = MiB(32);  // Coefficient field from the previous sweep.
constexpr Addr kOut = MiB(48);
constexpr std::uint64_t kPixels = static_cast<std::uint64_t>(kW) * kH;

constexpr unsigned kWarps = 512;
constexpr unsigned kSegW = 128;  // Pixels per segment (one line = 32 px).
constexpr std::uint64_t kSegments = kPixels / kSegW;
constexpr unsigned kSweeps = 2;
constexpr std::uint64_t kSegsPerWarp = kSweeps * kSegments / kWarps;

constexpr Addr pixel_addr(Addr base, unsigned x, unsigned y) {
  return f32_addr(base, static_cast<std::uint64_t>(y) * kW + x);
}

class SradWorkload final : public Workload {
 public:
  std::string name() const override { return "srad"; }
  std::string description() const override {
    return "Speckle-reducing anisotropic diffusion (Rodinia)";
  }
  unsigned group() const override { return 4; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kHigh,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kHigh,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kLow};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per segment: stencil rows op, coefficient halo op, compute, store.
    constexpr unsigned kStepsPerSeg = 4;
    const std::uint64_t total = kSegsPerWarp * kStepsPerSeg;
    if (step >= total) return false;

    const std::uint64_t iter = step / kStepsPerSeg;
    const unsigned phase = step % kStepsPerSeg;
    // Block-cyclic: consecutive warps take consecutive segments; a warp's
    // next segment is a full grid-stride away.
    const std::uint64_t seg = (iter * kWarps + warp) % kSegments;
    const unsigned sx = static_cast<unsigned>((seg * kSegW) % kW);
    const unsigned sy = static_cast<unsigned>((seg * kSegW) / kW);
    const unsigned ym = sy > 0 ? sy - 1 : 0, yp = std::min(kH - 1, sy + 1);

    switch (phase) {
      case 0: {
        // Centre segment (4 lines) + N/S neighbour segments' first lines.
        op.begin_load(8, /*approx=*/true);
        for (unsigned l = 0; l < 4; ++l)
          op.addrs[l] = line_base(pixel_addr(kImg, sx, sy)) + l * kLineBytes;
        op.addrs[4] = line_base(pixel_addr(kImg, sx, ym));
        op.addrs[5] = op.addrs[4] + kLineBytes;
        op.addrs[6] = line_base(pixel_addr(kImg, sx, yp));
        op.addrs[7] = op.addrs[6] + kLineBytes;
        return true;
      }
      case 1: {
        // Coefficient halo from a diagonally offset region (previous
        // sweep's frontier): lone reads, mates lag several sweeps.
        const std::uint64_t coef_seg = (seg + kSegments / 2 + 17) % kSegments;
        op = gpu::WarpOp::load_line(
            kCoef + coef_seg * (kSegW / kF32PerLine) * kLineBytes, /*approximable=*/true);
        return true;
      }
      case 2:
        op = gpu::WarpOp::compute(10);
        return true;
      default:
        op = wide_store(line_base(pixel_addr(kOut, sx, sy)), 4);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    // Speckled image: smooth anatomy multiplied by strong per-pixel noise.
    for (unsigned y = 0; y < kH; ++y)
      for (unsigned x = 0; x < kW; ++x) {
        const double anatomy = 90.0 + 50.0 * std::sin(0.02 * x) * std::cos(0.025 * y);
        const double speckle = 0.4 + 1.2 * mix_unit((static_cast<std::uint64_t>(y) << 20) | x);
        image.write_f32(pixel_addr(kImg, x, y), static_cast<float>(anatomy * speckle));
      }
    fill_hash_random(image, kCoef, kPixels, 0x5D, 0.1, 0.9);
  }

  void compute_output(gpu::MemView& view) const override {
    const auto clamp = [](int v, int hi) { return std::max(0, std::min(hi - 1, v)); };
    for (unsigned y = 0; y < kH; ++y)
      for (unsigned x = 0; x < kW; ++x) {
        const auto px = [&](int xi, int yi) {
          return static_cast<double>(
              view.read_f32(pixel_addr(kImg, static_cast<unsigned>(clamp(xi, kW)),
                                       static_cast<unsigned>(clamp(yi, kH)))));
        };
        const double c = px(x, y);
        const double dn = px(x, y - 1) - c, ds = px(x, y + 1) - c;
        const double de = px(x + 1, y) - c, dw = px(x - 1, y) - c;
        const double g2 = (dn * dn + ds * ds + de * de + dw * dw) / (c * c + 1e-6);
        const double l = (dn + ds + de + dw) / (c + 1e-6);
        const double num = 0.5 * g2 - (1.0 / 16.0) * l * l;
        const double den = 1.0 + 0.25 * l;
        const double q = num / (den * den + 1e-6);
        const double coef = 1.0 / (1.0 + q);  // Diffusion coefficient.
        view.write_f32(pixel_addr(kOut, x, y),
                       static_cast<float>(c + 0.25 * coef * (dn + ds + de + dw)));
      }
  }

  std::vector<AddrRange> output_ranges() const override { return {{kOut, kPixels * 4}}; }

  std::vector<AddrRange> approximable_ranges() const override {
    return {{kImg, kPixels * 4}, {kCoef, kPixels * 4}};
  }
};

}  // namespace

std::unique_ptr<Workload> make_srad() { return std::make_unique<SradWorkload>(); }

}  // namespace lazydram::workloads
