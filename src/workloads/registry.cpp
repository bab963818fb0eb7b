#include "workloads/registry.hpp"

#include <functional>
#include <utility>

#include "common/assert.hpp"
#include "workloads/apps.hpp"

namespace lazydram::workloads {

namespace {

using Factory = std::unique_ptr<Workload> (*)();

/// Table II presentation order.
constexpr std::pair<const char*, Factory> kRegistry[] = {
    {"RAY", &make_ray},
    {"inversek2j", &make_inversek2j},
    {"newtonraph", &make_newtonraph},
    {"FWT", &make_fwt},
    {"MVT", &make_mvt},
    {"jmein", &make_jmein},
    {"ATAX", &make_atax},
    {"3DCONV", &make_3dconv},
    {"CONS", &make_cons},
    {"srad", &make_srad},
    {"LPS", &make_lps},
    {"BICG", &make_bicg},
    {"SCP", &make_scp},
    {"GEMM", &make_gemm},
    {"blackscholes", &make_blackscholes},
    {"2MM", &make_2mm},
    {"3MM", &make_3mm},
    {"SLA", &make_sla},
    {"meanfilter", &make_meanfilter},
    {"laplacian", &make_laplacian},
};

}  // namespace

std::vector<std::string> all_workload_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : kRegistry) names.emplace_back(name);
  return names;
}

std::unique_ptr<Workload> find_workload(const std::string& name) {
  for (const auto& [n, factory] : kRegistry)
    if (name == n) return factory();
  return nullptr;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  std::unique_ptr<Workload> wl = find_workload(name);
  LD_ASSERT_MSG(wl != nullptr, ("unknown workload: " + name).c_str());
  return wl;
}

std::string unknown_workload_message(const std::string& name) {
  std::string out = "unknown workload '" + name + "'; known:";
  for (const auto& [n, factory] : kRegistry) out += std::string(" ") + n;
  return out;
}

std::vector<std::unique_ptr<Workload>> make_all_workloads() {
  std::vector<std::unique_ptr<Workload>> out;
  for (const auto& [name, factory] : kRegistry) out.push_back(factory());
  return out;
}

std::vector<std::string> fig12_workload_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : kRegistry) {
    const auto wl = factory();
    if (wl->group() != 4) names.emplace_back(name);
  }
  return names;
}

std::vector<std::string> group4_workload_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : kRegistry) {
    const auto wl = factory();
    if (wl->group() == 4) names.emplace_back(name);
  }
  return names;
}

}  // namespace lazydram::workloads
