// FunctionalMemory / MemoryImage / MemView tests: sparse storage, typed
// access, copy-on-write children, page moves, the approximate-line overlay,
// exact-vs-approximate views and their shared page cache, span reads and
// writes, and the input fills that write by span.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/scheduler_registry.hpp"
#include "gpu/functional_memory.hpp"
#include "gpu/gpu_top.hpp"
#include "workloads/mix.hpp"
#include "workloads/patterns.hpp"
#include "workloads/registry.hpp"

namespace lazydram::gpu {
namespace {

/// Same owned pages with the same bytes.
bool same_pages(const MemoryImage& a, const MemoryImage& b) {
  if (a.pages() != b.pages()) return false;
  bool same = true;
  a.for_each_page([&](Addr base, const std::uint8_t* bytes) {
    std::array<std::uint8_t, kPageBytes> other;
    b.read(base, other.data(), kPageBytes);
    same = same && std::memcmp(bytes, other.data(), kPageBytes) == 0;
  });
  return same;
}

/// The page copy MixWorkload's initialization used before page moves: a
/// whole-page overwrite at `bias` for every page `src` owns.
void reference_blit(MemoryImage& dst, const MemoryImage& src, Addr bias) {
  src.for_each_page(
      [&](Addr base, const std::uint8_t* bytes) { dst.write(base + bias, bytes, kPageBytes); });
}

TEST(MemoryImage, UnwrittenBytesReadZero) {
  MemoryImage img;
  EXPECT_FLOAT_EQ(img.read_f32(0x123400), 0.0f);
  EXPECT_EQ(img.pages(), 0u);
}

TEST(MemoryImage, ReadBackWritten) {
  MemoryImage img;
  img.write_f32(0x1000, 3.25f);
  img.write_f32(0x2000, -1.5e-7f);
  EXPECT_FLOAT_EQ(img.read_f32(0x1000), 3.25f);
  EXPECT_FLOAT_EQ(img.read_f32(0x2000), -1.5e-7f);
}

TEST(MemoryImage, CrossPageAccess) {
  MemoryImage img;
  std::uint8_t data[64];
  for (int i = 0; i < 64; ++i) data[i] = static_cast<std::uint8_t>(i);
  const Addr addr = MemoryImage::kPageBytes - 32;  // Straddles a page boundary.
  img.write(addr, data, 64);
  std::uint8_t out[64] = {};
  img.read(addr, out, 64);
  EXPECT_EQ(std::memcmp(data, out, 64), 0);
}

TEST(MemoryImage, CopyIsDeep) {
  MemoryImage a;
  a.write_f32(0x100, 1.0f);
  MemoryImage b(a);
  b.write_f32(0x100, 2.0f);
  EXPECT_FLOAT_EQ(a.read_f32(0x100), 1.0f);
  EXPECT_FLOAT_EQ(b.read_f32(0x100), 2.0f);
}

TEST(MemoryImage, CopyOnWriteChildReadsThroughAndCopiesOnFirstWrite) {
  MemoryImage base;
  base.write_f32(0x1000, 1.0f);
  base.write_f32(0x1004, 2.0f);
  MemoryImage child = MemoryImage::copy_on_write(base);
  EXPECT_EQ(child.pages(), 0u);
  EXPECT_FLOAT_EQ(child.read_f32(0x1000), 1.0f);  // Read-through.
  EXPECT_FLOAT_EQ(child.read_f32(0x9000), 0.0f);  // Absent in both.

  child.write_f32(0x1000, 5.0f);
  EXPECT_EQ(child.pages(), 1u);
  EXPECT_FLOAT_EQ(child.read_f32(0x1000), 5.0f);
  EXPECT_FLOAT_EQ(child.read_f32(0x1004), 2.0f);  // Rest of the page copied.
  EXPECT_FLOAT_EQ(base.read_f32(0x1000), 1.0f);   // Base never written.
  EXPECT_EQ(base.pages(), 1u);

  // Through a view (the page cache) as well as the image API.
  MemView view(child, nullptr);
  view.write_f32(0x1008, 7.0f);
  EXPECT_FLOAT_EQ(view.read_f32(0x1008), 7.0f);
  EXPECT_FLOAT_EQ(base.read_f32(0x1008), 0.0f);
  EXPECT_FLOAT_EQ(view.read_f32(0x1004), 2.0f);
}

TEST(MemoryImage, AbsorbMovesPagesAsWholePageOverwrites) {
  // Phase b partially rewrites a page phase a filled: the moved page
  // replaces a's page whole, zeros included, exactly like a page blit.
  MemoryImage a, b;
  for (Addr off = 0; off < 2 * kPageBytes; off += 4)
    a.write_f32(off, 1.0f + static_cast<float>(off));
  b.write_f32(kPageBytes + 8, 7.5f);
  b.write_f32(5 * kPageBytes, 9.0f);
  const Addr bias = Addr{1} << 30;

  MemoryImage expected;
  reference_blit(expected, a, bias);
  reference_blit(expected, b, bias);

  MemoryImage target;
  target.absorb(MemoryImage(a), bias);
  MemoryImage b_copy(b);
  target.absorb(std::move(b_copy), bias);
  EXPECT_EQ(b_copy.pages(), 0u);
  EXPECT_TRUE(same_pages(target, expected));
  EXPECT_FLOAT_EQ(target.read_f32(bias + kPageBytes + 12), 0.0f);  // Overwritten whole.
  EXPECT_FLOAT_EQ(target.read_f32(bias + 4), 5.0f);                 // Untouched page kept.
}

TEST(MemoryImage, MixInitMatchesPageBlitOnOverlappingPhases) {
  // Tenant 1's two phases share pages (GEMM's and 3MM's inputs overlap), so
  // the later phase must replace the earlier one's pages.
  std::vector<workloads::MixTenant> tenants(2);
  tenants[0].kernels = {"3MM"};
  tenants[1].kernels = {"GEMM", "3MM"};
  const workloads::MixWorkload mix(tenants);
  MemoryImage actual;
  mix.init_memory(actual);

  MemoryImage expected;
  std::size_t shared_pages = 0;
  for (TenantId t = 0; t < 2; ++t) {
    for (const std::string& kernel : tenants[t].kernels) {
      MemoryImage scratch;
      workloads::make_workload(kernel)->init_memory(scratch);
      const std::size_t before = expected.pages();
      reference_blit(expected, scratch, workloads::MixWorkload::tenant_base(t));
      shared_pages += before + scratch.pages() - expected.pages();
    }
  }
  ASSERT_GT(shared_pages, 0u) << "phases must overlap for this test to bite";
  EXPECT_TRUE(same_pages(actual, expected));
}

class OverlayTest : public ::testing::Test {
 protected:
  OverlayTest() {
    fmem_.image().write_f32(kLine, 10.0f);
    const float v = 99.0f;
    for (unsigned i = 0; i < kLineBytes; i += 4) std::memcpy(&approx_[i], &v, 4);
  }
  static constexpr Addr kLine = 0x4000;
  FunctionalMemory fmem_;
  std::array<std::uint8_t, kLineBytes> approx_{};
};

TEST_F(OverlayTest, FirstPredictionWins) {
  fmem_.record_approx_line(kLine, approx_.data());
  std::array<std::uint8_t, kLineBytes> second{};
  fmem_.record_approx_line(kLine, second.data());
  std::uint8_t out[kLineBytes];
  fmem_.read_line(kLine, out);
  float v;
  std::memcpy(&v, out, 4);
  EXPECT_FLOAT_EQ(v, 99.0f);
}

TEST_F(OverlayTest, ReadLinePrefersOverlay) {
  std::uint8_t out[kLineBytes];
  fmem_.read_line(kLine, out);
  float v;
  std::memcpy(&v, out, 4);
  EXPECT_FLOAT_EQ(v, 10.0f);  // No overlay yet: image value.
  fmem_.record_approx_line(kLine, approx_.data());
  fmem_.read_line(kLine, out);
  std::memcpy(&v, out, 4);
  EXPECT_FLOAT_EQ(v, 99.0f);
  EXPECT_TRUE(fmem_.line_is_approx(kLine + 12));
}

TEST_F(OverlayTest, ViewsDivergeOnOverlay) {
  fmem_.record_approx_line(kLine, approx_.data());
  MemoryImage exact_img = MemoryImage::copy_on_write(fmem_.image());
  MemoryImage approx_img = MemoryImage::copy_on_write(fmem_.image());
  MemView exact(exact_img, nullptr);
  MemView approx(approx_img, &fmem_.overlay());
  EXPECT_FLOAT_EQ(exact.read_f32(kLine), 10.0f);
  EXPECT_FLOAT_EQ(approx.read_f32(kLine), 99.0f);
  // Writes land in storage; reads of overlaid lines keep seeing the overlay
  // (per-load pessimism documented in DESIGN.md).
  approx.write_f32(kLine, 55.0f);
  EXPECT_FLOAT_EQ(approx.read_f32(kLine), 99.0f);
  EXPECT_FLOAT_EQ(approx.with_bias(4).read_f32(kLine - 4), 99.0f);
  EXPECT_FLOAT_EQ(approx_img.read_f32(kLine), 55.0f);
  EXPECT_FLOAT_EQ(fmem_.image().read_f32(kLine), 10.0f);
  EXPECT_FLOAT_EQ(exact.read_f32(kLine), 10.0f);
  // Non-overlaid addresses read storage normally, on the same page too.
  approx.write_f32(kLine + kLineBytes, 7.0f);
  EXPECT_FLOAT_EQ(approx.read_f32(kLine + kLineBytes), 7.0f);
  // A line recorded after the view's first read is still honored.
  fmem_.record_approx_line(kLine + kLineBytes, approx_.data());
  EXPECT_FLOAT_EQ(approx.read_f32(kLine + kLineBytes), 99.0f);
}

TEST(MemView, BiasedViewsSeeEachOthersWritesOnOnePage) {
  MemoryImage base;
  base.write_f32(0x2000, 1.0f);
  base.write_f32(0x2040, 2.0f);
  MemoryImage child = MemoryImage::copy_on_write(base);
  const MemView low(child, nullptr);
  const MemView high = low.with_bias(0x40);

  // `low` caches the base page, then `high` copies it into the child.
  EXPECT_FLOAT_EQ(low.read_f32(0x2040), 2.0f);
  MemView writer = high;
  writer.write_f32(0x2000, 3.0f);  // Lands at 0x2040.
  EXPECT_FLOAT_EQ(low.read_f32(0x2040), 3.0f);
  EXPECT_FLOAT_EQ(high.read_f32(0x2000), 3.0f);

  MemView low_writer = low;
  low_writer.write_f32(0x2080, 4.0f);
  EXPECT_FLOAT_EQ(high.read_f32(0x2040), 4.0f);
  EXPECT_FLOAT_EQ(low.read_f32(0x2000), 1.0f);
  EXPECT_FLOAT_EQ(base.read_f32(0x2040), 2.0f);
  EXPECT_EQ(child.pages(), 1u);
}

TEST(MemView, ImageOutlivesTheOverlayItsViewRead) {
  // The cache remembers which overlay its masks describe but must never
  // dereference it again: a later write may come after the overlay is gone
  // (the sanitizer build turns a violation into a failure).
  MemoryImage img;
  img.write_f32(0x1000, 1.0f);
  {
    ApproxOverlay overlay;
    std::array<std::uint8_t, kLineBytes> line{};
    overlay.record(0x1000, line.data());
    const MemView view(img, &overlay);
    EXPECT_FLOAT_EQ(view.read_f32(0x1000), 0.0f);
  }
  for (Addr page = 0; page < 64; ++page) img.write_f32(page * kPageBytes + 8, 3.0f);
  EXPECT_FLOAT_EQ(img.read_f32(0x1000), 1.0f);
  EXPECT_FLOAT_EQ(img.read_f32(0x2008), 3.0f);
  const MemView exact(img, nullptr);
  EXPECT_FLOAT_EQ(exact.read_f32(0x1000), 1.0f);
}

TEST(MemView, PagesInOneCacheSlotStayDistinct) {
  // Many MiB-aligned arrays: whatever slots they share, each read must
  // return its own page's value.
  MemoryImage base;
  constexpr unsigned kArrays = 64;
  for (unsigned i = 0; i < kArrays; ++i)
    base.write_f32(static_cast<Addr>(i) << 20, static_cast<float>(i + 1));
  MemoryImage child = MemoryImage::copy_on_write(base);
  MemView view(child, nullptr);
  for (unsigned round = 0; round < 2; ++round)
    for (unsigned i = 0; i < kArrays; ++i) {
      EXPECT_EQ(view.read_f32(static_cast<Addr>(i) << 20), static_cast<float>(i + 1));
      if (round == 0 && i % 3 == 0) view.write_f32((static_cast<Addr>(i) << 20) + 4, 0.0f);
    }
}

/// Byte-map reference of a view: the overlay's lines (first recording wins)
/// over the child's bytes over the base's bytes; unmapped bytes are zero.
struct ByteModel {
  std::map<Addr, std::uint8_t> base;
  std::map<Addr, std::uint8_t> child;
  std::map<Addr, std::array<std::uint8_t, kLineBytes>> overlay;

  std::uint8_t image_byte(Addr a) const {
    for (const auto* bytes : {&child, &base})
      if (const auto it = bytes->find(a); it != bytes->end()) return it->second;
    return 0;
  }
  std::uint8_t view_byte(Addr a, bool approx) const {
    if (approx)
      if (const auto it = overlay.find(line_base(a)); it != overlay.end())
        return it->second[a % kLineBytes];
    return image_byte(a);
  }
};

TEST(MemView, SpanReadsMatchScalarReads) {
  // A 12-page window: the base owns pages 0-5, the copy-on-write child
  // writes into pages 0-7 (copying base pages in), and pages 8-11 and
  // everything past the window stay unowned and read zero. The overlay's
  // lines cover the whole window.
  constexpr Addr kWin = Addr{3} << 20;
  constexpr std::size_t kWinBytes = 12 * kPageBytes;
  constexpr std::size_t kWriteBytes = 8 * kPageBytes;
  constexpr std::size_t kMaxSpan = 3000;
  Rng rng(0x5EED);
  ByteModel model;
  MemoryImage base;
  for (Addr a = kWin; a < kWin + 6 * kPageBytes; ++a) {
    const auto byte = static_cast<std::uint8_t>(rng.next_below(256));
    base.write(a, &byte, 1);
    model.base[a] = byte;
  }
  MemoryImage child = MemoryImage::copy_on_write(base);
  MemoryImage scalar_child = MemoryImage::copy_on_write(base);
  ApproxOverlay overlay;

  // Biases: none, a line and a word, whole pages, and pages less two words.
  const Addr biases[] = {0, kLineBytes + 4, 2 * kPageBytes, 3 * kPageBytes - 8};
  std::vector<float> spanned(kMaxSpan);
  std::vector<float> scalars(kMaxSpan);
  std::vector<float> values(kMaxSpan);
  // Records `line` in the overlay (a no-op for the overlay and the model if
  // it is already there: first recording wins).
  const auto record = [&](Addr line) {
    std::array<std::uint8_t, kLineBytes> bytes;
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    overlay.record(line, bytes.data());
    model.overlay.try_emplace(line, bytes);
  };
  for (int round = 0; round < 300; ++round) {
    record(kWin + rng.next_below(kWinBytes / kLineBytes) * kLineBytes);
    // A write: by span on `child`, element by element on `scalar_child`.
    {
      const std::size_t n = rng.next_below(kMaxSpan + 1);
      const Addr at = kWin + 4 * rng.next_below((kWriteBytes - 4 * n) / 4 + 1);
      for (std::size_t i = 0; i < n; ++i) {
        const auto bits = static_cast<std::uint32_t>(rng.next_u64());
        std::memcpy(&values[i], &bits, 4);
        scalar_child.write_f32(at + 4 * i, values[i]);
        for (unsigned b = 0; b < 4; ++b)
          model.child[at + 4 * i + b] = static_cast<std::uint8_t>(bits >> (8 * b));
      }
      child.write_f32s(at, values.data(), n);
    }
    // One run read by span and by scalars through an exact or an approximate
    // view, twice: the second time after a line inside the run was recorded,
    // with the other kind of read going first to meet the stale masks.
    const bool approx = round % 3 != 0;
    const Addr bias = biases[rng.next_below(std::size(biases))];
    const MemView view(child, approx ? &overlay : nullptr, bias);
    const std::size_t n = rng.next_below(kMaxSpan + 1);
    const Addr at = kWin + 4 * rng.next_below(kWinBytes / 4);
    for (const bool scalars_first : {round % 2 == 0, round % 2 != 0}) {
      const auto read_scalars = [&] {
        for (std::size_t i = 0; i < n; ++i) scalars[i] = view.read_f32(at + 4 * i);
      };
      if (scalars_first) read_scalars();
      view.read_f32s(at, spanned.data(), n);
      if (!scalars_first) read_scalars();
      for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t want[4];
        for (unsigned b = 0; b < 4; ++b)
          want[b] = model.view_byte(at + bias + 4 * i + b, approx);
        ASSERT_EQ(std::memcmp(&spanned[i], want, 4), 0) << "round " << round << " element " << i;
        ASSERT_EQ(std::memcmp(&scalars[i], want, 4), 0) << "round " << round << " element " << i;
      }
      if (n > 0) record(line_base(at + bias + 4 * rng.next_below(n)));
    }
  }
  EXPECT_TRUE(same_pages(child, scalar_child));
  EXPECT_GT(child.pages(), 6u);
  EXPECT_GT(overlay.size(), 100u);
}

TEST(Patterns, FillsMatchScalarReference) {
  // The per-element formulas of the fills, each value written on its own.
  // `n` is not a multiple of a page of f32s and `base` is not page-aligned,
  // so the fills' page-sized runs start and end mid-page.
  using namespace workloads;
  constexpr std::uint64_t n = 5000;
  constexpr Addr base = MiB(3) + 200;
  constexpr double kTwoPi = 6.283185307179586;

  MemoryImage filled;
  MemoryImage reference;
  fill_smooth(filled, base, n, 0.35, 977.0, 1.0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double phase = kTwoPi * 977.0 * static_cast<double>(i) / static_cast<double>(n);
    reference.write_f32(f32_addr(base, i), static_cast<float>(1.0 + 0.35 * std::sin(phase)));
  }
  EXPECT_TRUE(same_pages(filled, reference));

  const Addr hashed = base + MiB(1);
  fill_hash_random(filled, hashed, n, 0xB5, 20.0, 120.0);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double u = mix_unit(0xB5 * 0x9e3779b97f4a7c15ULL + i);
    reference.write_f32(f32_addr(hashed, i), static_cast<float>(20.0 + (120.0 - 20.0) * u));
  }
  EXPECT_TRUE(same_pages(filled, reference));

  const Addr linear = base + MiB(2);
  fill_linear(filled, linear, n, -3.5, 0.25);
  for (std::uint64_t i = 0; i < n; ++i)
    reference.write_f32(f32_addr(linear, i),
                        static_cast<float>(-3.5 + 0.25 * static_cast<double>(i)));
  EXPECT_TRUE(same_pages(filled, reference));
  EXPECT_EQ(filled.pages(), 3 * ((200 + 4 * n) / kPageBytes + 1));
}

TEST(FunctionalPasses, ApplicationErrorLeavesTheRunImageIntact) {
  // laplacian writes its outputs onto pages its inputs already occupy, so
  // both children copy base pages before writing.
  const auto workload = workloads::make_workload("laplacian");
  GpuConfig cfg;
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, cfg.scheme);
  GpuTop top(cfg, *workload, core::make_scheduler_factory(cfg, spec));
  ASSERT_TRUE(top.run());
  ASSERT_FALSE(top.fmem().overlay().empty());

  const MemoryImage before(top.fmem().image());
  const double error = workload->application_error(top.fmem());
  EXPECT_GT(error, 0.0);
  EXPECT_TRUE(same_pages(top.fmem().image(), before));
  EXPECT_EQ(workload->application_error(top.fmem()), error);

  // The same passes on deep copies of the image give the same error.
  MemoryImage exact_img(before);
  MemoryImage approx_img(before);
  MemView exact(exact_img, nullptr);
  MemView approx(approx_img, &top.fmem().overlay());
  workload->compute_output(exact);
  workload->compute_output(approx);
  workloads::ErrorTally tally;
  workload->tally_output_errors(exact, approx, tally);
  EXPECT_EQ(tally.mean(), error);
}

}  // namespace
}  // namespace lazydram::gpu
