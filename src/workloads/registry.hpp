// Name-indexed access to all application models.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace lazydram::workloads {

/// Names of all registered applications, in Table II presentation order.
std::vector<std::string> all_workload_names();

/// The workload model named `name`, or nullptr for an unknown name.
std::unique_ptr<Workload> find_workload(const std::string& name);

/// find_workload() for library callers: aborts on unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// "unknown workload 'NAME'; known: SCP, LPS, ..." for usage errors.
std::string unknown_workload_message(const std::string& name);

/// Builds every registered workload.
std::vector<std::unique_ptr<Workload>> make_all_workloads();

/// Names of the apps in Fig. 12's population (groups 1-3: medium/high error
/// tolerance).
std::vector<std::string> fig12_workload_names();

/// Names of the Group-4 apps (Fig. 15's delay-only population).
std::vector<std::string> group4_workload_names();

}  // namespace lazydram::workloads
