#include "workloads/mix.hpp"

#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "workloads/registry.hpp"

namespace lazydram::workloads {

namespace {

/// splitmix64: deterministic, platform-independent hash mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

MixWorkload::MixWorkload(std::vector<MixTenant> tenants, std::uint64_t seed)
    : seed_(seed) {
  LD_ASSERT_MSG(!tenants.empty(), "a mix needs at least one tenant");
  tenants_.reserve(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    TenantState ts;
    ts.spec = std::move(tenants[i]);
    LD_ASSERT_MSG(!ts.spec.kernels.empty(), "a tenant needs at least one kernel");
    LD_ASSERT_MSG(ts.spec.repeat >= 1, "repeat must be >= 1");
    if (ts.spec.name.empty()) {
      for (const std::string& k : ts.spec.kernels) {
        if (!ts.spec.name.empty()) ts.spec.name += '+';
        ts.spec.name += k;
      }
    }
    ts.base = tenant_base(static_cast<TenantId>(i));
    ts.warp_base = total_warps_;
    ts.iter_ops_base = ts.spec.think > 0 ? 1 : 0;

    unsigned max_inner_warps = 0;
    for (const std::string& kernel : ts.spec.kernels) {
      std::unique_ptr<Workload> inner = make_workload(kernel);
      const unsigned inner_warps = inner->num_warps();
      if (inner_warps > max_inner_warps) max_inner_warps = inner_warps;

      // The tenant's window must contain the kernel's whole footprint.
      for (const AddrRange& r : inner->output_ranges())
        LD_ASSERT_MSG(r.base + r.bytes <= (Addr{1} << kWindowBits),
                      "kernel footprint exceeds the tenant address window");

      // Probe each inner warp's stream length once; op_at is deterministic
      // and side-effect free, so the probed length is exact.
      std::vector<unsigned> lens(inner_warps, 0);
      gpu::WarpOp op;
      for (unsigned w = 0; w < inner_warps; ++w) {
        unsigned n = 0;
        while (inner->op_at(w, n, op)) ++n;
        lens[w] = n;
      }
      ts.phase_len.push_back(std::move(lens));
      ts.inners.push_back(std::move(inner));
    }

    ts.warps = ts.spec.warps == 0 ? max_inner_warps : ts.spec.warps;
    LD_ASSERT_MSG(ts.warps > 0, "tenant resolved to zero warps");
    total_warps_ += ts.warps;
    tenants_.push_back(std::move(ts));
  }
}

std::string MixWorkload::name() const {
  std::string n = "mix[";
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (i > 0) n += ';';
    n += tenants_[i].spec.name;
  }
  return n + "]";
}

std::string MixWorkload::description() const {
  return "multi-tenant mix of " + std::to_string(tenants_.size()) + " client(s)";
}

TenantId MixWorkload::tenant_of_warp(unsigned warp) const {
  LD_ASSERT(warp < total_warps_);
  for (std::size_t i = tenants_.size(); i-- > 0;)
    if (warp >= tenants_[i].warp_base) return static_cast<TenantId>(i);
  return 0;
}

TenantId MixWorkload::tenant_of_addr(Addr addr) const {
  const Addr window = addr >> kWindowBits;
  const Addr last = static_cast<Addr>(tenants_.size() - 1);
  return static_cast<TenantId>(window < last ? window : last);
}

std::uint16_t MixWorkload::think_cycles(TenantId t, unsigned warp, unsigned iter) const {
  const MixTenant& spec = tenants_[t].spec;
  const std::uint64_t h =
      mix64(seed_ ^ (static_cast<std::uint64_t>(t) << 48) ^
            (static_cast<std::uint64_t>(warp) << 24) ^ iter);
  // Map to (0, 1]: never exactly 0, so log() is finite.
  const double u =
      (static_cast<double>(h >> 11) + 1.0) / 9007199254740993.0;  // 2^53 + 1
  const double gap = -static_cast<double>(spec.think) * std::log(u);
  if (gap < 1.0) return 1;
  if (gap >= 65535.0) return 65535;
  return static_cast<std::uint16_t>(gap);
}

unsigned MixWorkload::iter_len(const TenantState& ts, unsigned local) const {
  unsigned len = ts.iter_ops_base;
  for (const std::vector<unsigned>& lens : ts.phase_len)
    if (local < lens.size()) len += lens[local];
  return len;
}

bool MixWorkload::op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const {
  const TenantId t = tenant_of_warp(warp);
  const TenantState& ts = tenants_[t];
  const unsigned local = warp - ts.warp_base;

  const unsigned per_iter = iter_len(ts, local);
  if (per_iter == ts.iter_ops_base) return false;  // No kernel work for this warp.

  const unsigned iter = step / per_iter;
  if (iter >= ts.spec.repeat) return false;
  unsigned pos = step % per_iter;

  if (pos < ts.iter_ops_base) {
    // Arrival gap: exponential think time before this iteration's burst
    // (staggers the initial arrivals too).
    op = gpu::WarpOp::compute(think_cycles(t, local, iter));
    return true;
  }
  pos -= ts.iter_ops_base;

  for (std::size_t k = 0; k < ts.inners.size(); ++k) {
    if (local >= ts.phase_len[k].size()) continue;  // Kernel grid smaller than budget.
    const unsigned len = ts.phase_len[k][local];
    if (pos >= len) {
      pos -= len;
      continue;
    }
    const bool ok = ts.inners[k]->op_at(local, pos, op);
    LD_ASSERT_MSG(ok, "probed stream length disagrees with op_at");
    // Rebase the op into the tenant's address window; strip the
    // approximation annotation for precise-only tenants.
    if (ts.base != 0)
      for (unsigned a = 0; a < op.num_addrs; ++a) op.addrs[a] += ts.base;
    if (!ts.spec.approx) op.approximable = false;
    return true;
  }
  LD_ASSERT_MSG(false, "op index beyond the tenant's stream");
  return false;
}

void MixWorkload::init_memory(gpu::MemoryImage& image) const {
  for (const TenantState& ts : tenants_) {
    // Phases share the tenant's window; a later kernel's initialization wins
    // on overlap, mirroring phase order at runtime.
    for (const auto& inner : ts.inners) {
      gpu::MemoryImage scratch;
      inner->init_memory(scratch);
      image.absorb(std::move(scratch), ts.base);
    }
  }
}

void MixWorkload::compute_output(gpu::MemView& view) const {
  // The functional dataflow runs once per kernel regardless of `repeat`:
  // iterations re-run the same op stream, so the app's outputs are those of
  // a single pass.
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    gpu::MemView biased = view.with_bias(tenants_[i].base);
    for (const auto& inner : tenants_[i].inners) inner->compute_output(biased);
  }
}

std::vector<AddrRange> MixWorkload::output_ranges() const {
  std::vector<AddrRange> out;
  for (const TenantState& ts : tenants_)
    for (const auto& inner : ts.inners)
      for (AddrRange r : inner->output_ranges()) {
        r.base += ts.base;
        out.push_back(r);
      }
  return out;
}

std::vector<AddrRange> MixWorkload::approximable_ranges() const {
  std::vector<AddrRange> out;
  for (const TenantState& ts : tenants_) {
    if (!ts.spec.approx) continue;  // Precise-only tenant: nothing annotated.
    for (const auto& inner : ts.inners)
      for (AddrRange r : inner->approximable_ranges()) {
        r.base += ts.base;
        out.push_back(r);
      }
  }
  return out;
}

std::vector<double> MixWorkload::tally_tenants(const gpu::MemView& exact,
                                               const gpu::MemView& approx,
                                               ErrorTally& total) const {
  std::vector<double> errors;
  errors.reserve(tenants_.size());
  for (const TenantState& ts : tenants_) {
    ErrorTally tenant{.total = &total};
    const gpu::MemView tenant_exact = exact.with_bias(ts.base);
    const gpu::MemView tenant_approx = approx.with_bias(ts.base);
    for (const auto& inner : ts.inners)
      inner->tally_output_errors(tenant_exact, tenant_approx, tenant);
    errors.push_back(tenant.mean());
  }
  return errors;
}

void MixWorkload::tally_output_errors(const gpu::MemView& exact, const gpu::MemView& approx,
                                      ErrorTally& tally) const {
  tally_tenants(exact, approx, tally);
}

MixWorkload::TenantErrors MixWorkload::tenant_application_errors(
    const gpu::FunctionalMemory& fmem) const {
  const FunctionalPasses passes(*this, fmem);
  ErrorTally total;
  TenantErrors out;
  out.tenants = tally_tenants(passes.exact(), passes.approx(), total);
  out.total = total.mean();
  return out;
}

}  // namespace lazydram::workloads
