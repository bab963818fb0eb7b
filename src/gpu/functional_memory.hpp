// Functional data image of the GPU's global memory, and the approximate-line
// overlay that records what the VP unit synthesized.
//
// The timing simulator moves addresses, not values; values live here.
// Workloads initialize their input arrays into the image before the timed
// run. When the AMS unit drops a request, the partition records the VP's
// predicted 128 bytes in the overlay. After the run, application error is
// computed by executing the workload's functional model twice — once against
// the pristine image ("exact") and once with every read checking the overlay
// first ("approximate") — and comparing the declared outputs (Section II-D's
// average relative error). Both passes run on copy-on-write children of the
// run's image, so they own only the pages the model writes (DESIGN.md §9.5).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/value_predictor.hpp"

namespace lazydram::gpu {

inline constexpr std::size_t kPageBytes = 4096;
static_assert(kPageBytes / kLineBytes == 32, "overlay page masks are 32-bit");

/// Predicted 128B lines, keyed by line base address, with a per-page summary
/// of which lines are present. First prediction wins: the first drop is the
/// moment the (approximate) line entered the L2 and became the value the
/// cores observe. Lines are only ever added, so size() versions the masks.
class ApproxOverlay {
 public:
  using Line = std::array<std::uint8_t, kLineBytes>;

  /// Records `bytes` for the line at `line_addr` (no-op if already present).
  void record(Addr line_addr, const std::uint8_t* bytes);
  /// The predicted bytes of the line at `line_addr`, or nullptr.
  const Line* find(Addr line_addr) const;
  /// Bit i is set iff line i of page number `page` (address / kPageBytes)
  /// is in the overlay.
  std::uint32_t page_mask(Addr page) const;

  std::size_t size() const { return lines_.size(); }
  bool empty() const { return lines_.empty(); }

 private:
  std::unordered_map<Addr, Line> lines_;
  std::unordered_map<Addr, std::uint32_t> page_masks_;
};

/// Sparse byte store keyed by 4KB pages. Unwritten bytes read as zero.
///
/// A copy-on-write child (copy_on_write) reads through to its base for every
/// page it does not own; its first write to a page copies that page in. The
/// base is never written through a child, and must outlive its children
/// without allocating or dropping pages meanwhile.
class MemoryImage {
 public:
  static constexpr std::size_t kPageBytes = gpu::kPageBytes;

  MemoryImage() = default;
  /// Deep copy of the owned pages (a child's copy shares its base).
  MemoryImage(const MemoryImage& other);
  MemoryImage& operator=(const MemoryImage&) = delete;
  MemoryImage(MemoryImage&& other) noexcept;
  MemoryImage& operator=(MemoryImage&&) = delete;

  /// An empty child of `base` (see the class comment).
  static MemoryImage copy_on_write(const MemoryImage& base);

  void read(Addr addr, std::uint8_t* out, std::size_t n) const;
  void write(Addr addr, const std::uint8_t* data, std::size_t n);

  /// Moves every page of `src` into this image at `bias` bytes offset,
  /// replacing any page already there (a whole-page overwrite). `bias` must
  /// be page-aligned (tenant windows are GiB-aligned) and `src` must not be
  /// a child. Leaves `src` empty.
  void absorb(MemoryImage&& src, Addr bias);

  float read_f32(Addr addr) const;
  void write_f32(Addr addr, float value);
  /// Writes values[0..n) as consecutive f32s from `addr`, one page at a time.
  void write_f32s(Addr addr, const float* values, std::size_t n) {
    write(addr, reinterpret_cast<const std::uint8_t*>(values), 4 * n);
  }

  /// Pages this image owns (a child's read-through pages are not counted).
  std::size_t pages() const { return pages_.size(); }
  /// Calls fn(page_base, bytes) for every owned page, in unspecified order.
  template <class Fn>
  void for_each_page(Fn&& fn) const {
    for (const auto& [base, page] : pages_) fn(base, std::as_const(*page).data());
  }

 private:
  friend class MemView;
  using Page = std::array<std::uint8_t, kPageBytes>;

  /// One entry of the page-pointer cache.
  struct Slot {
    Addr page = ~Addr{0};           ///< Page number (address / kPageBytes).
    const Page* read = nullptr;     ///< Own or base page; nullptr reads zero.
    Page* own = nullptr;            ///< Non-null iff this image owns the page.
    bool mask_known = false;        ///< approx_mask is set for mask_overlay_.
    std::uint32_t approx_mask = 0;  ///< mask_overlay_->page_mask(page).
  };
  static constexpr unsigned kSlotBits = 4;

  const Page* page_of(Addr addr) const;
  Page& page_for_write(Addr addr);

  /// The cache entry for `addr`'s page, filled on a miss. Non-const: only
  /// writers and views (which hold the storage mutably) touch the cache, so
  /// const reads of a shared image stay thread-safe.
  Slot& slot(Addr addr);
  /// slot(addr) with its overlay mask for `overlay` filled in. Masks held
  /// for another overlay, or for fewer of its lines, are dropped first.
  const Slot& view_slot(Addr addr, const ApproxOverlay* overlay);
  void flush_slots() { slots_.fill(Slot{}); }

  std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
  const MemoryImage* base_ = nullptr;  ///< Read-through parent of a child.
  std::array<Slot, std::size_t{1} << kSlotBits> slots_{};
  /// The overlay the known masks describe (compared, never dereferenced:
  /// it may be gone by the time the image is next written).
  const ApproxOverlay* mask_overlay_ = nullptr;
  std::size_t mask_lines_ = 0;  ///< Its size() when the masks were taken.
};

class FunctionalMemory : public core::LineReader {
 public:
  MemoryImage& image() { return image_; }
  const MemoryImage& image() const { return image_; }

  /// Records the VP prediction for a dropped line (no-op if already present).
  void record_approx_line(Addr line_addr, const std::uint8_t* bytes) {
    overlay_.record(line_addr, bytes);
  }

  const ApproxOverlay& overlay() const { return overlay_; }
  bool line_is_approx(Addr line_addr) const {
    return overlay_.find(line_base(line_addr)) != nullptr;
  }

  /// core::LineReader — what a consumer of the memory system observes:
  /// overlay first (the approximate line is what the L2 holds), then image.
  void read_line(Addr line_addr, std::uint8_t out[kLineBytes]) const override;

 private:
  MemoryImage image_;
  ApproxOverlay overlay_;
};

/// Read/write view used by workload functional models. `overlay == nullptr`
/// is the exact view; otherwise every read consults the overlay first, so a
/// load of an approximated line observes the predicted value (even for lines
/// the model itself wrote — per-load resolution is deliberately pessimistic,
/// see DESIGN.md). Views (and their with_bias copies) share the storage's
/// page-pointer cache, so a page one of them allocates is seen by all.
class MemView {
 public:
  MemView(MemoryImage& storage, const ApproxOverlay* overlay, Addr bias = 0)
      : storage_(storage), overlay_(overlay), bias_(bias) {}

  /// A view onto the same storage/overlay with `bias` added to every
  /// address. Lets a tenant's inner functional model run unmodified in its
  /// own address space while the data lives in the tenant's global window.
  MemView with_bias(Addr bias) const { return MemView(storage_, overlay_, bias_ + bias); }

  float read_f32(Addr addr) const;
  void write_f32(Addr addr, float value) { storage_.write_f32(addr + bias_, value); }

  /// Reads n consecutive f32s from `addr` (4-byte aligned) into out[0..n),
  /// byte for byte what n read_f32 calls return. Resolves one slot per page
  /// and copies the page's run whole unless one of its lines is approximate;
  /// only those lines read the overlay.
  void read_f32s(Addr addr, float* out, std::size_t n) const;
  void write_f32s(Addr addr, const float* values, std::size_t n) {
    storage_.write_f32s(addr + bias_, values, n);
  }

 private:
  /// Reads n bytes from `addr` (already biased) honoring the overlay, one
  /// page chunk at a time: the scalar reads and read_f32s all go through it.
  void read_bytes(Addr addr, std::uint8_t* out, std::size_t n) const;

  MemoryImage& storage_;
  const ApproxOverlay* overlay_;
  Addr bias_ = 0;  ///< Added to every address (overlay keys are post-bias).
};

}  // namespace lazydram::gpu
