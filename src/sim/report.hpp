// Small reporting helpers shared by the bench binaries.
#pragma once

#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace lazydram::sim {

/// Geometric mean (benches aggregate normalized ratios, where the geomean is
/// the meaningful average). Empty input yields 1.0.
double geomean(const std::vector<double>& values);

/// Arithmetic mean; empty input yields 0.0.
double mean(const std::vector<double>& values);

/// "value (vs base)" ratio; guards a zero base.
double ratio(double value, double base);

/// Standard bench header: prints the experiment id and what the paper
/// reported, so every bench's output is self-describing.
void print_bench_header(const std::string& experiment, const std::string& paper_result);

/// The workloads a bench sweeps: all 20 under knobs::kFull, otherwise a
/// representative subset spanning all four groups and feature levels.
std::vector<std::string> bench_workloads();

}  // namespace lazydram::sim
