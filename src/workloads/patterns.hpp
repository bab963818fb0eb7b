// Shared address-pattern and data-initialization helpers for the 20
// application models.
//
// Address-space geometry reminder (Table I defaults): the global space is
// interleaved over 6 channels in 256B chunks; within a channel a 2KB row
// holds 8 chunks, so one "row set" (the same row index in every channel)
// spans 12KB of contiguous global addresses, a bank changes every 12KB, and
// the row index increments every 192KB. Patterns below are expressed in
// these units: a *sequential* stream enjoys high row locality, a stride of
// ~192KB revisits the same bank with a fresh row every step (worst case),
// and scattered accesses within a bounded footprint create the recoverable
// low-RBL traffic that DMS/AMS exploit.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "gpu/functional_memory.hpp"
#include "gpu/warp.hpp"

namespace lazydram::workloads {

constexpr Addr MiB(std::uint64_t n) { return n << 20; }
constexpr Addr KiB(std::uint64_t n) { return n << 10; }

/// Address of element `i` of an f32 array at `base`.
constexpr Addr f32_addr(Addr base, std::uint64_t i) { return base + 4 * i; }

/// Line base address containing element `i` of an f32 array at `base`.
constexpr Addr f32_line(Addr base, std::uint64_t i) { return line_base(f32_addr(base, i)); }

/// Elements of one 128B line (f32).
inline constexpr std::uint64_t kF32PerLine = kLineBytes / 4;

/// Deterministic 64-bit mixer (splitmix64 finalizer). Used by workloads for
/// per-(warp, iteration) pseudo-random access patterns without shared state.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform value in [0, 1) from a hash.
constexpr double mix_unit(std::uint64_t x) {
  return static_cast<double>(mix64(x) >> 11) * (1.0 / 9007199254740992.0);
}

/// Wide (multi-transaction) warp load: `nlines` consecutive 128B lines from
/// `base`. Models vector/tile accesses whose transactions issue back-to-back
/// from the load/store unit — the source of baseline row-buffer locality.
inline gpu::WarpOp::Run wide_load(Addr base, unsigned nlines, bool approximable) {
  return {gpu::WarpOp::Kind::kLoad, 1, static_cast<std::uint8_t>(nlines), approximable,
          line_base(base)};
}

/// Wide warp store: `nlines` consecutive lines from `base`.
inline gpu::WarpOp::Run wide_store(Addr base, unsigned nlines) {
  return {gpu::WarpOp::Kind::kStore, 1, static_cast<std::uint8_t>(nlines), false,
          line_base(base)};
}

// --- Data initialization -------------------------------------------------
// Value prediction substitutes a nearby line's bytes, so how *smooth* the
// data is in address order controls the application error each model shows.

/// arr[i] = offset + amplitude * sin(2*pi*freq * i / n) — smooth data, small
/// nearest-line prediction error.
void fill_smooth(gpu::MemoryImage& image, Addr base, std::uint64_t n, double amplitude,
                 double freq, double offset);

/// arr[i] = lo + (hi-lo) * hash(seed, i) — rough data, large prediction error.
void fill_hash_random(gpu::MemoryImage& image, Addr base, std::uint64_t n,
                      std::uint64_t seed, double lo, double hi);

/// arr[i] = start + slope * i.
void fill_linear(gpu::MemoryImage& image, Addr base, std::uint64_t n, double start,
                 double slope);

}  // namespace lazydram::workloads
