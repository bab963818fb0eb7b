// Runtime verification modes (knobs::kCheck: --check / LAZYDRAM_CHECK).
//
//   off    - no checking (the default; zero cost on the hot path).
//   log    - violations are recorded, counted, traced and log_warn'ed; the
//            run continues (for triage: collect *all* violations of a run).
//   strict - the first violation throws check::ViolationError, which unwinds
//            cleanly through GpuTop::run into the caller (the sweep engine
//            captures it into the job's SweepResult; tests EXPECT_THROW it).
#pragma once

#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace lazydram::check {

enum class CheckMode : std::uint8_t { kOff, kLog, kStrict };

/// Thrown by a strict-mode ProtocolChecker on the first violation. Derives
/// from std::runtime_error so every existing fault-isolation boundary
/// (SweepEngine::run_one catches std::exception) contains it.
class ViolationError : public std::runtime_error {
 public:
  explicit ViolationError(const std::string& what) : std::runtime_error(what) {}
};

/// Parses "off" / "log" / "strict"; anything else is kOff (knobs::kCheck
/// checks the value first and warns about a typo).
CheckMode parse_check_mode(const std::string& text);

const char* check_mode_name(CheckMode mode);

/// Default bound for the no-starvation invariant: no pending request may be
/// older than this many memory cycles. Generous on purpose — DMS delays top
/// out at 2048 cycles, so anything near a million cycles is a wedged queue,
/// not a policy decision.
inline constexpr Cycle kDefaultStarvationBound = 1u << 20;

}  // namespace lazydram::check
