#include "gpu/functional_memory.hpp"

#include <algorithm>

namespace lazydram::gpu {

void ApproxOverlay::record(Addr line_addr, const std::uint8_t* bytes) {
  LD_ASSERT(line_addr % kLineBytes == 0);
  auto [it, inserted] = lines_.try_emplace(line_addr);
  if (!inserted) return;  // First prediction wins.
  std::memcpy(it->second.data(), bytes, kLineBytes);
  page_masks_[line_addr / kPageBytes] |= std::uint32_t{1}
                                         << (line_addr % kPageBytes / kLineBytes);
}

const ApproxOverlay::Line* ApproxOverlay::find(Addr line_addr) const {
  const auto it = lines_.find(line_addr);
  return it == lines_.end() ? nullptr : &it->second;
}

std::uint32_t ApproxOverlay::page_mask(Addr page) const {
  const auto it = page_masks_.find(page);
  return it == page_masks_.end() ? 0 : it->second;
}

MemoryImage::MemoryImage(const MemoryImage& other) : base_(other.base_) {
  pages_.reserve(other.pages_.size());
  for (const auto& [base, page] : other.pages_)
    pages_.emplace(base, std::make_unique<Page>(*page));
}

MemoryImage::MemoryImage(MemoryImage&& other) noexcept
    : pages_(std::move(other.pages_)), base_(other.base_) {
  other.pages_.clear();
  other.flush_slots();
}

MemoryImage MemoryImage::copy_on_write(const MemoryImage& base) {
  MemoryImage child;
  child.base_ = &base;
  return child;
}

const MemoryImage::Page* MemoryImage::page_of(Addr addr) const {
  const auto it = pages_.find(addr & ~static_cast<Addr>(kPageBytes - 1));
  if (it != pages_.end()) return it->second.get();
  return base_ == nullptr ? nullptr : base_->page_of(addr);
}

MemoryImage::Slot& MemoryImage::slot(Addr addr) {
  const Addr page = addr / kPageBytes;
  // Fibonacci hashing: arrays start on MiB boundaries, so their page numbers
  // share their low bits; the product's top bits spread them.
  Slot& s = slots_[(page * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits)];
  if (s.page != page) {
    const auto it = pages_.find(page * kPageBytes);
    s.page = page;
    s.own = it == pages_.end() ? nullptr : it->second.get();
    s.read = s.own != nullptr ? s.own : base_ == nullptr ? nullptr : base_->page_of(addr);
    s.mask_known = false;
  }
  return s;
}

const MemoryImage::Slot& MemoryImage::view_slot(Addr addr, const ApproxOverlay* overlay) {
  if (overlay != mask_overlay_ || (overlay != nullptr && overlay->size() != mask_lines_)) {
    for (Slot& s : slots_) s.mask_known = false;
    mask_overlay_ = overlay;
    mask_lines_ = overlay == nullptr ? 0 : overlay->size();
  }
  Slot& s = slot(addr);
  if (!s.mask_known) {
    s.approx_mask = overlay == nullptr ? 0 : overlay->page_mask(s.page);
    s.mask_known = true;
  }
  return s;
}

MemoryImage::Page& MemoryImage::page_for_write(Addr addr) {
  Slot& s = slot(addr);
  if (s.own == nullptr) {
    auto page = std::make_unique<Page>();  // Zero-filled.
    if (s.read != nullptr) *page = *s.read;  // First write to a base page.
    s.own = page.get();
    s.read = s.own;
    pages_.emplace(s.page * kPageBytes, std::move(page));
  }
  return *s.own;
}

void MemoryImage::read(Addr addr, std::uint8_t* out, std::size_t n) const {
  while (n > 0) {
    const Addr page_base = addr & ~static_cast<Addr>(kPageBytes - 1);
    const std::size_t offset = static_cast<std::size_t>(addr - page_base);
    const std::size_t chunk = std::min(n, kPageBytes - offset);
    if (const Page* page = page_of(addr))
      std::memcpy(out, page->data() + offset, chunk);
    else
      std::memset(out, 0, chunk);
    addr += chunk;
    out += chunk;
    n -= chunk;
  }
}

void MemoryImage::write(Addr addr, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const Addr page_base = addr & ~static_cast<Addr>(kPageBytes - 1);
    const std::size_t offset = static_cast<std::size_t>(addr - page_base);
    const std::size_t chunk = std::min(n, kPageBytes - offset);
    std::memcpy(page_for_write(addr).data() + offset, data, chunk);
    addr += chunk;
    data += chunk;
    n -= chunk;
  }
}

void MemoryImage::absorb(MemoryImage&& src, Addr bias) {
  LD_ASSERT_MSG(bias % kPageBytes == 0, "absorb bias must be page-aligned");
  LD_ASSERT_MSG(src.base_ == nullptr, "cannot absorb a copy-on-write child");
  for (auto& [base, page] : src.pages_) pages_.insert_or_assign(base + bias, std::move(page));
  src.pages_.clear();
  src.flush_slots();
  flush_slots();  // Replaced pages are freed; cached pointers to them dangle.
}

float MemoryImage::read_f32(Addr addr) const {
  float v;
  std::uint8_t buf[4];
  read(addr, buf, 4);
  std::memcpy(&v, buf, 4);
  return v;
}

void MemoryImage::write_f32(Addr addr, float value) {
  std::uint8_t buf[4];
  std::memcpy(buf, &value, 4);
  write(addr, buf, 4);
}

void FunctionalMemory::read_line(Addr line_addr, std::uint8_t out[kLineBytes]) const {
  LD_ASSERT(line_addr % kLineBytes == 0);
  if (const ApproxOverlay::Line* line = overlay_.find(line_addr)) {
    std::memcpy(out, line->data(), kLineBytes);
    return;
  }
  image_.read(line_addr, out, kLineBytes);
}

namespace {

/// Copies page bytes [offset, offset + n) to `out`; a null page reads zero.
void copy_page_bytes(const std::uint8_t* page, std::size_t offset, std::uint8_t* out,
                     std::size_t n) {
  if (page != nullptr)
    std::memcpy(out, page + offset, n);
  else
    std::memset(out, 0, n);
}

}  // namespace

void MemView::read_bytes(Addr addr, std::uint8_t* out, std::size_t n) const {
  while (n > 0) {
    const std::size_t offset = static_cast<std::size_t>(addr % kPageBytes);
    const std::size_t chunk = std::min(n, kPageBytes - offset);
    const MemoryImage::Slot& s = storage_.view_slot(addr, overlay_);
    const std::uint8_t* page = s.read != nullptr ? s.read->data() : nullptr;
    // Bits first..last: the lines this chunk covers.
    const std::size_t first = offset / kLineBytes;
    const std::size_t last = (offset + chunk - 1) / kLineBytes;
    const auto covered =
        static_cast<std::uint32_t>((std::uint64_t{2} << last) - (std::uint64_t{1} << first));
    if ((s.approx_mask & covered) == 0) {
      copy_page_bytes(page, offset, out, chunk);
    } else {
      // Line by line: only a masked line probes the overlay hash.
      const Addr page_base = addr - offset;
      for (std::size_t pos = offset; pos < offset + chunk;) {
        const std::size_t line = pos / kLineBytes;
        const std::size_t piece = std::min(offset + chunk, (line + 1) * kLineBytes) - pos;
        if ((s.approx_mask >> line & 1u) != 0) {
          const ApproxOverlay::Line* bytes = overlay_->find(page_base + line * kLineBytes);
          LD_ASSERT(bytes != nullptr);
          std::memcpy(out + (pos - offset), bytes->data() + pos % kLineBytes, piece);
        } else {
          copy_page_bytes(page, pos, out + (pos - offset), piece);
        }
        pos += piece;
      }
    }
    addr += chunk;
    out += chunk;
    n -= chunk;
  }
}

float MemView::read_f32(Addr addr) const {
  float v;
  read_bytes(addr + bias_, reinterpret_cast<std::uint8_t*>(&v), 4);
  return v;
}

void MemView::read_f32s(Addr addr, float* out, std::size_t n) const {
  LD_ASSERT_MSG(addr % 4 == 0, "f32 spans must be 4-byte aligned");
  read_bytes(addr + bias_, reinterpret_cast<std::uint8_t*>(out), 4 * n);
}

}  // namespace lazydram::gpu
