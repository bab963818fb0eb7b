// laplacian — image sharpening filter (AxBench).
//
// Table II classification: Group 3; LOW thrashing, Medium delay tolerance,
// LOW activation sensitivity, Low Th_RBL sensitivity, Medium error
// tolerance. Fig. 14's showcase app: at ~17% application error the
// sharpened output remains visually acceptable.
//
// Model: a 3x3 Laplacian sharpening kernel over a 512x512 image with the
// output buffer interleaved row by row (see meanfilter for the mechanism:
// batched row-span fetches give Low thrashing/activation sensitivity, and
// the in/out row interleaving keeps AMS coverage below 10% -> Group 3).
// A shorter compute burst than meanfilter gives Medium delay tolerance, and
// sharpening amplifies local differences, so prediction errors show more
// (Medium error tolerance). The `image_approx` example renders this
// workload's exact vs approximate PGM outputs (Fig. 14).
#include "workloads/apps.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "workloads/image.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kW = laplacian_layout::kWidth, kH = laplacian_layout::kHeight;
constexpr Addr kBuf = laplacian_layout::kBuffer;
constexpr std::uint64_t kSlot = laplacian_layout::kRowSlotBytes;

constexpr Addr img_row(unsigned y) { return kBuf + y * kSlot; }
constexpr Addr out_row(unsigned y) { return kBuf + y * kSlot + 2048; }
constexpr Addr img_px(unsigned x, unsigned y) { return img_row(y) + 4ull * x; }
constexpr Addr out_px(unsigned x, unsigned y) { return out_row(y) + 4ull * x; }

constexpr unsigned kWarps = 256;
constexpr unsigned kPasses = 2;
constexpr std::uint64_t kRowsPerWarp = kPasses * kH / kWarps;

class LaplacianWorkload final : public Workload {
 public:
  std::string name() const override { return "laplacian"; }
  std::string description() const override { return "Image sharpening filter (AxBench)"; }
  unsigned group() const override { return 3; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kLow,
            .delay_tolerance = Level::kMedium,
            .activation_sensitivity = Level::kLow,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kMedium};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    constexpr unsigned kStepsPerRow = 4;
    const std::uint64_t total = kRowsPerWarp * kStepsPerRow;
    if (step >= total) return false;

    const std::uint64_t iter = step / kStepsPerRow;
    const unsigned phase = step % kStepsPerRow;
    const unsigned sy =
        static_cast<unsigned>((static_cast<std::uint64_t>(warp) * kRowsPerWarp + iter) % kH);
    const unsigned ym = sy > 0 ? sy - 1 : 0;
    const unsigned yp = std::min(kH - 1, sy + 1);

    switch (phase) {
      case 0:    // First halves of input rows y-1, y, y+1.
      case 1: {  // Second halves.
        op.begin_load(24, /*approx=*/true);
        unsigned n = 0;
        for (const unsigned yy : {ym, sy, yp}) {
          const Addr half = img_row(yy) + phase * 8ull * kLineBytes;
          for (unsigned l = 0; l < 8; ++l) op.addrs[n++] = half + l * kLineBytes;
        }
        return true;
      }
      case 2:
        op = gpu::WarpOp::compute(80);
        return true;
      default:
        op = wide_store(out_row(sy), 16);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    fill_test_image(image, kBuf, kW, kH, /*seed=*/0x1AB, /*features=*/6, kSlot);
  }

  void compute_output(gpu::MemView& view) const override {
    const auto clamp = [](int v, int hi) { return std::max(0, std::min(hi - 1, v)); };
    const auto px = [&](int xi, int yi) {
      return static_cast<double>(view.read_f32(img_px(
          static_cast<unsigned>(clamp(xi, kW)), static_cast<unsigned>(clamp(yi, kH)))));
    };
    for (unsigned y = 0; y < kH; ++y)
      for (unsigned x = 0; x < kW; ++x) {
        const int xi = static_cast<int>(x), yi = static_cast<int>(y);
        // Unsharp-mask style sharpening: centre plus 1.2x the Laplacian.
        const double lap = 4.0 * px(xi, yi) - px(xi - 1, yi) - px(xi + 1, yi) -
                           px(xi, yi - 1) - px(xi, yi + 1);
        const double v = px(xi, yi) + 0.3 * lap;
        view.write_f32(out_px(x, y), static_cast<float>(std::clamp(v, 0.0, 255.0)));
      }
  }

  std::vector<AddrRange> output_ranges() const override {
    std::vector<AddrRange> out;
    out.reserve(kH);
    for (unsigned y = 0; y < kH; ++y) out.push_back({out_row(y), 2048});
    return out;
  }

  std::vector<AddrRange> approximable_ranges() const override {
    std::vector<AddrRange> in;
    in.reserve(kH);
    for (unsigned y = 0; y < kH; ++y) in.push_back({img_row(y), 2048});
    return in;
  }
};

}  // namespace

std::unique_ptr<Workload> make_laplacian() {
  return std::make_unique<LaplacianWorkload>();
}

}  // namespace lazydram::workloads
