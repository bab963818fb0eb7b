#include "common/config.hpp"

#include <string>

#include "common/assert.hpp"

namespace lazydram {

namespace {

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

std::string mhz(unsigned v) { return std::to_string(v) + " MHz"; }

}  // namespace

void GpuConfig::validate() const {
  LD_ASSERT(num_sms > 0);
  LD_ASSERT(num_channels > 0);
  LD_ASSERT(warp_size > 0 && warp_size <= 32);
  LD_ASSERT(max_warps_per_sm > 0);

  LD_ASSERT(is_pow2(l1.line_bytes) && l1.line_bytes == kLineBytes);
  LD_ASSERT(is_pow2(l2.line_bytes) && l2.line_bytes == kLineBytes);
  LD_ASSERT(l1.ways > 0 && l1.size_bytes % (l1.ways * l1.line_bytes) == 0);
  LD_ASSERT(l2.ways > 0 && l2.size_bytes % (l2.ways * l2.line_bytes) == 0);
  LD_ASSERT(is_pow2(l1.num_sets()) && is_pow2(l2.num_sets()));

  LD_ASSERT(is_pow2(channel_interleave_bytes));
  LD_ASSERT_MSG(channel_interleave_bytes >= kLineBytes,
                "a 128B transaction must not straddle channels");
  LD_ASSERT(is_pow2(row_bytes) && row_bytes >= channel_interleave_bytes);
  LD_ASSERT(is_pow2(banks_per_channel));
  LD_ASSERT_MSG(banks_per_channel <= 64,
                "banks_per_channel must be at most 64 (the controller's bank masks "
                "are one 64-bit word)");
  LD_ASSERT(bank_groups_per_channel > 0 &&
            banks_per_channel % bank_groups_per_channel == 0);
  LD_ASSERT(pending_queue_size > 0);

  LD_ASSERT(mem_clock_mhz > 0 && core_clock_mhz >= mem_clock_mhz);

  LD_ASSERT(timing.tRAS + timing.tRP <= timing.tRC);
  LD_ASSERT(timing.tRCD <= timing.tRAS);
  LD_ASSERT(timing.tBURST > 0);
  // A tFAW below tRRD would be weaker than the pairwise ACT spacing it is
  // meant to tighten — certainly a typo.
  if (timing.tFAW != 0) LD_ASSERT(timing.tFAW >= timing.tRRD);

  LD_ASSERT(scheme.min_delay <= scheme.max_delay);
  LD_ASSERT(scheme.delay_step > 0);
  LD_ASSERT(scheme.profile_window > 0);
  LD_ASSERT(scheme.min_th_rbl >= 1 && scheme.min_th_rbl <= scheme.max_th_rbl);
  LD_ASSERT(scheme.coverage_cap >= 0.0 && scheme.coverage_cap <= 1.0);
  LD_ASSERT(scheme.bwutil_threshold > 0.0 && scheme.bwutil_threshold <= 1.0);

  LD_ASSERT(policy.bliss_threshold > 0);
  LD_ASSERT(policy.bliss_clear_interval > 0);
  LD_ASSERT(policy.rr_cap > 0);
  LD_ASSERT(policy.tune_min_delay <= policy.tune_max_delay);
  LD_ASSERT(policy.tune_step > 0);
  LD_ASSERT(policy.tune_window > 0);
  LD_ASSERT(policy.tune_tolerance > 0.0 && policy.tune_tolerance <= 1.0);

  LD_ASSERT_MSG(shard_threads >= 1 && shard_threads <= 64,
                "shard_threads is a lane count in 1..64");
}

std::vector<std::pair<std::string, std::string>> GpuConfig::describe() const {
  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("Core clock", mhz(core_clock_mhz));
  rows.emplace_back("SMs", std::to_string(num_sms));
  rows.emplace_back("SIMD width", std::to_string(simd_width));
  rows.emplace_back("Max warps / SM", std::to_string(max_warps_per_sm) + " (" +
                                          std::to_string(warp_size) + " threads/warp)");
  rows.emplace_back("L1 data cache / SM",
                    std::to_string(l1.size_bytes / 1024) + "KB " + std::to_string(l1.ways) +
                        "-way, " + std::to_string(l1.line_bytes) + "B lines");
  rows.emplace_back("L2 cache / channel",
                    std::to_string(l2.size_bytes / 1024) + "KB " + std::to_string(l2.ways) +
                        "-way (" + std::to_string(l2.size_bytes * num_channels / 1024) +
                        "KB total), " + std::to_string(l2.line_bytes) + "B lines");
  rows.emplace_back("Memory controllers",
                    std::to_string(num_channels) + " GDDR5 MCs, FR-FCFS scheduling");
  rows.emplace_back("Banks / MC", std::to_string(banks_per_channel) + " (" +
                                      std::to_string(bank_groups_per_channel) +
                                      " bank groups)");
  rows.emplace_back("Memory clock", mhz(mem_clock_mhz));
  rows.emplace_back("Address interleaving",
                    "linear space in chunks of " +
                        std::to_string(channel_interleave_bytes) + " bytes");
  rows.emplace_back("DRAM row size", std::to_string(row_bytes) + " bytes");
  rows.emplace_back("Pending queue", std::to_string(pending_queue_size) + " entries / MC");
  rows.emplace_back(
      "GDDR5 timing",
      "tCL=" + std::to_string(timing.tCL) + ", tRP=" + std::to_string(timing.tRP) +
          ", tRC=" + std::to_string(timing.tRC) + ", tRAS=" + std::to_string(timing.tRAS) +
          ", tCCD=" + std::to_string(timing.tCCD) + ", tRCD=" + std::to_string(timing.tRCD) +
          ", tRRD=" + std::to_string(timing.tRRD) +
          ", tCDLR=" + std::to_string(timing.tCDLR) +
          (timing.tFAW != 0 ? ", tFAW=" + std::to_string(timing.tFAW) : ""));
  rows.emplace_back("Interconnect", "1 crossbar/direction (" + std::to_string(num_sms) +
                                        " SMs, " + std::to_string(num_channels) +
                                        " MCs), " + mhz(core_clock_mhz) + ", latency " +
                                        std::to_string(icnt_latency) + " cycles");
  rows.emplace_back("DMS", "static delay " + std::to_string(scheme.static_delay) +
                               ", range [" + std::to_string(scheme.min_delay) + ", " +
                               std::to_string(scheme.max_delay) + "], step " +
                               std::to_string(scheme.delay_step) + ", window " +
                               std::to_string(scheme.profile_window));
  rows.emplace_back("AMS", "static Th_RBL " + std::to_string(scheme.static_th_rbl) +
                               ", range [" + std::to_string(scheme.min_th_rbl) + ", " +
                               std::to_string(scheme.max_th_rbl) + "], coverage cap " +
                               std::to_string(static_cast<int>(scheme.coverage_cap * 100)) +
                               "%");
  return rows;
}

}  // namespace lazydram
