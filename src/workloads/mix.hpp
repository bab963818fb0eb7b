// Multi-tenant workload front-end: N independent clients, each with its own
// kernel mix, arrival process and approximation annotation, multiplexed onto
// the one simulated GPU.
//
// Each tenant owns
//   * a kernel sequence drawn from the registered application models, executed
//     as sequential phases by every warp of the tenant's warp budget,
//   * a closed-loop arrival process: `repeat` iterations of the sequence with
//     an exponential think-time gap (mean `think` core cycles) before each
//     iteration — rate = 1/think requests of work per warp (think=0 degrades
//     to back-to-back batch arrivals, the classic saturation client),
//   * an approximation annotation switch: approx=false strips the kernels'
//     approximable tags, making the tenant's traffic precise-only,
//   * QoS budgets (per-tenant AMS coverage cap, per-tenant DMS delay cap)
//     carried separately through GpuConfig (see gpu::TenantSet).
//
// Tenants occupy disjoint GiB-aligned address windows (tenant i's data lives
// at bias i << kWindowBits), so a (bank,row) group never mixes tenants and
// address-derived ownership (tenant_of_addr) is exact. Tenant 0 is bias-free:
// a one-tenant mix with a default spec replays the inner workload's op stream
// bit-identically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "workloads/workload.hpp"

namespace lazydram::workloads {

/// One client of a multi-tenant run (also the parsed form of the bench's
/// tenant spec grammar, see gpu::parse_tenant_specs).
struct MixTenant {
  std::string name = {};                  ///< Display name; defaults to the kernel list.
  std::vector<std::string> kernels = {};  ///< Registered workload names (sequential phases).
  unsigned warps = 0;                     ///< Warp budget; 0 = max over the kernels' grids.
  unsigned repeat = 1;                    ///< Closed-loop iterations of the sequence.
  Cycle think = 0;                        ///< Mean think-time (core cycles) per iteration.
  bool approx = true;                     ///< Honor the kernels' approximable annotations.
  double coverage_cap = -1.0;             ///< Per-tenant AMS budget (<0 inherits global).
  Cycle dms_delay_cap = kNeverCycle;      ///< Per-tenant DMS delay cap (kNeverCycle = none).
};

class MixWorkload : public Workload {
 public:
  /// Tenant address windows are (1 << kWindowBits)-byte aligned.
  static constexpr unsigned kWindowBits = 30;  // 1 GiB per tenant.

  /// `seed` feeds the think-time hash RNG (deterministic per
  /// (seed, tenant, warp, iteration)).
  explicit MixWorkload(std::vector<MixTenant> tenants, std::uint64_t seed = 1);

  static Addr tenant_base(TenantId t) { return static_cast<Addr>(t) << kWindowBits; }

  // --- Workload interface ---
  std::string name() const override;
  std::string description() const override;
  unsigned group() const override { return 1; }
  FeatureTargets targets() const override { return FeatureTargets{}; }

  unsigned num_warps() const override { return total_warps_; }
  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override;

  unsigned num_tenants() const override {
    return static_cast<unsigned>(tenants_.size());
  }
  TenantId tenant_of_warp(unsigned warp) const override;
  TenantId tenant_of_addr(Addr addr) const override;
  std::string tenant_name(TenantId t) const override { return tenants_[t].spec.name; }

  void init_memory(gpu::MemoryImage& image) const override;
  void compute_output(gpu::MemView& view) const override;
  std::vector<AddrRange> output_ranges() const override;
  std::vector<AddrRange> approximable_ranges() const override;
  /// Tenant by tenant, each kernel's own tally_output_errors on views biased
  /// into the tenant's window.
  void tally_output_errors(const gpu::MemView& exact, const gpu::MemView& approx,
                           ErrorTally& tally) const override;

  // --- Per-tenant introspection ---
  const MixTenant& tenant(TenantId t) const { return tenants_[t].spec; }
  unsigned tenant_warps(TenantId t) const { return tenants_[t].warps; }
  unsigned tenant_warp_base(TenantId t) const { return tenants_[t].warp_base; }
  /// The run's application error and each tenant's error over its own
  /// outputs (same Section II-D metric), from one pair of functional passes.
  struct TenantErrors {
    double total = 0.0;
    std::vector<double> tenants;
  };
  TenantErrors tenant_application_errors(const gpu::FunctionalMemory& fmem) const;

 private:
  struct TenantState {
    MixTenant spec;
    std::vector<std::unique_ptr<Workload>> inners;  ///< One per kernel phase.
    unsigned warps = 0;       ///< Resolved warp budget.
    unsigned warp_base = 0;   ///< First global warp id owned by this tenant.
    Addr base = 0;            ///< Address window bias.
    /// phase_len[k][w]: stream length of kernel k's inner warp w (probed once
    /// at construction; op_at is deterministic so the probe is exact).
    std::vector<std::vector<unsigned>> phase_len;
    unsigned iter_ops_base = 0;  ///< Think ops per iteration (0 or 1).
  };

  /// Exponential think-time sample for (tenant, warp, iteration), clamped to
  /// one WarpOp's cycle range.
  std::uint16_t think_cycles(TenantId t, unsigned warp, unsigned iter) const;
  /// Ops per iteration for the tenant's local warp `w`.
  unsigned iter_len(const TenantState& ts, unsigned local) const;
  /// Tallies every tenant's outputs into `total`; returns each tenant's own
  /// mean error.
  std::vector<double> tally_tenants(const gpu::MemView& exact, const gpu::MemView& approx,
                                    ErrorTally& total) const;

  std::vector<TenantState> tenants_;
  std::uint64_t seed_;
  unsigned total_warps_ = 0;
};

}  // namespace lazydram::workloads
