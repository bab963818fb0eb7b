// meanfilter — convolution filter for noise reduction (AxBench).
//
// Table II classification: Group 3; LOW thrashing, High delay tolerance,
// LOW activation sensitivity, Low Th_RBL sensitivity, High error tolerance.
//
// Model: a 3x3 box filter over a 512x512 image stored with the output buffer
// interleaved row by row (each 4KB slot holds an input row and its output
// row — the natural in/out pair allocation). Warps own contiguous row bands
// and fetch the three input rows of each output row as two 24-transaction
// spans: DRAM activations serve many requests each (Low thrashing) and
// arrive fully batched, leaving nothing for delay to consolidate (LOW
// activation sensitivity). Because every DRAM row also carries output-row
// writes, almost no row group is all-reads and the reachable AMS coverage
// stays far below 10% (Group 3). Long averaging bursts give High delay
// tolerance; a box filter over a smooth image is the friendliest case for
// value prediction (High error tolerance).
#include "workloads/apps.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "workloads/image.hpp"
#include "workloads/patterns.hpp"

namespace lazydram::workloads {
namespace {

constexpr unsigned kW = 512, kH = 512;
constexpr Addr kBuf = MiB(16);
constexpr std::uint64_t kSlot = 4096;  // Per row: 2KB input + 2KB output.

constexpr Addr img_row(unsigned y) { return kBuf + y * kSlot; }
constexpr Addr out_row(unsigned y) { return kBuf + y * kSlot + 2048; }
constexpr Addr img_px(unsigned x, unsigned y) { return img_row(y) + 4ull * x; }
constexpr Addr out_px(unsigned x, unsigned y) { return out_row(y) + 4ull * x; }

constexpr unsigned kWarps = 256;
constexpr unsigned kPasses = 2;
constexpr std::uint64_t kRowsPerWarp = kPasses * kH / kWarps;

class MeanFilterWorkload final : public Workload {
 public:
  std::string name() const override { return "meanfilter"; }
  std::string description() const override {
    return "Convolution filter for noise reduction (AxBench)";
  }
  unsigned group() const override { return 3; }

  FeatureTargets targets() const override {
    return {.thrashing = Level::kLow,
            .delay_tolerance = Level::kHigh,
            .activation_sensitivity = Level::kLow,
            .th_rbl_sensitive = false,
            .error_tolerance = Level::kHigh};
  }

  unsigned num_warps() const override { return kWarps; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    // Per output row: two 24-line input spans, two averaging bursts, one
    // 16-line output store.
    constexpr unsigned kStepsPerRow = 5;
    const std::uint64_t total = kRowsPerWarp * kStepsPerRow;
    if (step >= total) return false;

    const std::uint64_t iter = step / kStepsPerRow;
    const unsigned phase = step % kStepsPerRow;
    const unsigned sy =
        static_cast<unsigned>((static_cast<std::uint64_t>(warp) * kRowsPerWarp + iter) % kH);
    const unsigned ym = sy > 0 ? sy - 1 : 0;
    const unsigned yp = std::min(kH - 1, sy + 1);

    switch (phase) {
      case 0:    // First halves of input rows y-1, y, y+1 (3 x 8 lines).
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
      case 3:
        op = gpu::WarpOp::compute(200);
        return true;
      default:
        op = wide_store(out_row(sy), 16);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    // A gentle image (few features): the box filter's High error tolerance.
    fill_test_image(image, kBuf, kW, kH, /*seed=*/0x3EA, /*features=*/4, kSlot);
  }

  void compute_output(gpu::MemView& view) const override {
    const auto clamp = [](int v, int hi) { return std::max(0, std::min(hi - 1, v)); };
    for (unsigned y = 0; y < kH; ++y)
      for (unsigned x = 0; x < kW; ++x) {
        double acc = 0.0;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx)
            acc += view.read_f32(
                img_px(static_cast<unsigned>(clamp(static_cast<int>(x) + dx, kW)),
                       static_cast<unsigned>(clamp(static_cast<int>(y) + dy, kH))));
        view.write_f32(out_px(x, y), static_cast<float>(acc / 9.0));
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

std::unique_ptr<Workload> make_meanfilter() {
  return std::make_unique<MeanFilterWorkload>();
}

}  // namespace lazydram::workloads
