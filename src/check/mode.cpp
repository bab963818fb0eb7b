#include "check/mode.hpp"

#include "common/assert.hpp"
#include "common/knobs.hpp"

namespace lazydram::check {

CheckMode parse_check_mode(const std::string& text) {
  // The kCheck row lists the modes in CheckMode order.
  return static_cast<CheckMode>(knobs::word_index(knobs::kCheck, text).value_or(0));
}

const char* check_mode_name(CheckMode mode) {
  switch (mode) {
    case CheckMode::kOff: return "off";
    case CheckMode::kLog: return "log";
    case CheckMode::kStrict: return "strict";
  }
  LD_ASSERT_MSG(false, "unreachable");
  return "?";
}

}  // namespace lazydram::check
