#include "core/scheduler_registry.hpp"

#include <cstdlib>
#include <limits>

#include "common/assert.hpp"
#include "common/knobs.hpp"
#include "core/lazy_scheduler.hpp"
#include "mem/autotune.hpp"
#include "mem/batch_rr.hpp"
#include "mem/bliss.hpp"
#include "mem/fcfs.hpp"
#include "mem/frfcfs.hpp"

namespace lazydram::core {

namespace {

/// Explicit registration instead of static-initializer tricks: the library
/// is linked statically, where unreferenced translation units (and their
/// registrar objects) are silently dropped.
void register_builtins(SchedulerRegistry& r) {
  r.register_policy("lazy", "lazy", "DMS/AMS lazy scheduler (paper, Section IV); scheme via SchemeSpec",
                    [](const PolicyRequest& req) -> std::unique_ptr<Scheduler> {
                      return std::make_unique<LazyScheduler>(req.cfg.scheme, req.spec,
                                                             req.cfg.banks_per_channel);
                    });
  r.register_policy("frfcfs", "FR-FCFS", "baseline first-ready FCFS (Rixner)",
                    [](const PolicyRequest&) -> std::unique_ptr<Scheduler> {
                      return std::make_unique<FrFcfsScheduler>();
                    });
  r.register_policy("fcfs", "FCFS", "strict arrival order, no row-hit priority",
                    [](const PolicyRequest&) -> std::unique_ptr<Scheduler> {
                      return std::make_unique<FcfsScheduler>();
                    });
  r.register_policy("bliss", "BLISS",
                    "blacklisting fairness scheduler (keys: threshold, interval)",
                    [](const PolicyRequest& req) -> std::unique_ptr<Scheduler> {
                      return std::make_unique<BlissScheduler>(req.cfg.policy,
                                                              req.cfg.num_sms);
                    });
  r.register_policy("batch-rr", "Batch-RR",
                    "batch-capped round-robin (key: cap)",
                    [](const PolicyRequest& req) -> std::unique_ptr<Scheduler> {
                      return std::make_unique<BatchRrScheduler>(req.cfg.policy,
                                                                req.cfg.banks_per_channel);
                    });
  r.register_policy("autotune", "Autotune-DMS",
                    "hill-climbing delay autotuner (keys: min, max, step, window, tol)",
                    [](const PolicyRequest& req) -> std::unique_ptr<Scheduler> {
                      return std::make_unique<AutotuneScheduler>(req.cfg.policy);
                    });
}

}  // namespace

SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry* reg = [] {
    auto* r = new SchedulerRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

void SchedulerRegistry::register_policy(std::string name, std::string label,
                                        std::string description, Factory factory) {
  LD_ASSERT_MSG(!name.empty() && factory != nullptr, "bad policy registration");
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted =
      entries_
          .emplace(std::move(name), Entry{std::move(label), std::move(description),
                                          std::move(factory)})
          .second;
  LD_ASSERT_MSG(inserted, "duplicate scheduler policy name");
}

bool SchedulerRegistry::known(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(name) != 0;
}

std::vector<std::string> SchedulerRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::string SchedulerRegistry::label(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  LD_ASSERT_MSG(it != entries_.end(), "unknown scheduler policy");
  return it->second.label;
}

std::string SchedulerRegistry::description(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  LD_ASSERT_MSG(it != entries_.end(), "unknown scheduler policy");
  return it->second.description;
}

std::unique_ptr<Scheduler> SchedulerRegistry::make(const std::string& name,
                                                   const PolicyRequest& req) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    LD_ASSERT_MSG(it != entries_.end(), "unknown scheduler policy");
    factory = it->second.factory;
  }
  std::unique_ptr<Scheduler> sched = factory(req);
  LD_ASSERT_MSG(sched != nullptr, "scheduler policy factory returned null");
  return sched;
}

std::string policy_name(const GpuConfig& cfg) {
  return cfg.policy.name.empty() ? "lazy" : cfg.policy.name;
}

std::string run_label(const GpuConfig& cfg, const SchemeSpec& spec) {
  const std::string name = policy_name(cfg);
  if (name == "lazy") return scheme_name(spec.kind);
  return SchedulerRegistry::instance().label(name);
}

namespace {

// Integer keys parse as knob-table counts: digits only, no sign or blank,
// rejected rather than wrapped or saturated when out of range.
constexpr std::uint64_t kMaxU64 = ~std::uint64_t{0};
constexpr knobs::Knob kAnyCount{.kind = knobs::Kind::kCount, .hi = kMaxU64};
constexpr knobs::Knob kPositiveCount{.kind = knobs::Kind::kCount, .lo = 1, .hi = kMaxU64};
constexpr knobs::Knob kPositiveUnsigned{.kind = knobs::Kind::kCount, .lo = 1,
                                        .hi = std::numeric_limits<unsigned>::max()};

bool parse_count(const knobs::Knob& k, const std::string& s, std::uint64_t& out) {
  knobs::Value v;
  if (!knobs::parse(k, s, &v)) return false;
  out = v.count;
  return true;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool parse_policy_spec(const std::string& text, GpuConfig& cfg, std::string* error) {
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);
  if (name.empty()) return fail(error, "empty policy name");
  if (!SchedulerRegistry::instance().known(name))
    return fail(error, "unknown policy '" + name + "'");

  PolicyParams p = cfg.policy;
  p.name = name;
  std::string rest = colon == std::string::npos ? "" : text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string kv = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0)
      return fail(error, "expected key=value, got '" + kv + "'");
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    std::uint64_t u = 0;
    double d = 0.0;

    if (name == "bliss" && key == "threshold" && parse_count(kPositiveUnsigned, val, u))
      p.bliss_threshold = static_cast<unsigned>(u);
    else if (name == "bliss" && key == "interval" && parse_count(kPositiveCount, val, u))
      p.bliss_clear_interval = u;
    else if (name == "batch-rr" && key == "cap" && parse_count(kPositiveUnsigned, val, u))
      p.rr_cap = static_cast<unsigned>(u);
    else if (name == "autotune" && key == "min" && parse_count(kAnyCount, val, u))
      p.tune_min_delay = u;
    else if (name == "autotune" && key == "max" && parse_count(kAnyCount, val, u))
      p.tune_max_delay = u;
    else if (name == "autotune" && key == "step" && parse_count(kPositiveCount, val, u))
      p.tune_step = u;
    else if (name == "autotune" && key == "window" && parse_count(kPositiveCount, val, u))
      p.tune_window = u;
    else if (name == "autotune" && key == "tol" && parse_double(val, d) && d > 0.0 &&
             d <= 1.0)
      p.tune_tolerance = d;
    else
      return fail(error, "bad key/value '" + kv + "' for policy '" + name + "'");
  }
  if (p.tune_min_delay > p.tune_max_delay)
    return fail(error, "autotune min exceeds max");

  cfg.policy = p;
  return true;
}

std::function<std::unique_ptr<Scheduler>(ChannelId)> make_scheduler_factory(
    const GpuConfig& cfg, const SchemeSpec& spec) {
  const std::string name = policy_name(cfg);
  LD_ASSERT_MSG(SchedulerRegistry::instance().known(name),
                "unknown scheduler policy in GpuConfig");
  PolicyRequest req{cfg, spec, 0};
  return [req, name](ChannelId channel) mutable -> std::unique_ptr<Scheduler> {
    req.channel = channel;
    return SchedulerRegistry::instance().make(name, req);
  };
}

std::unique_ptr<Scheduler> make_scheduler(const GpuConfig& cfg, const SchemeSpec& spec,
                                          ChannelId channel) {
  return make_scheduler_factory(cfg, spec)(channel);
}

}  // namespace lazydram::core
