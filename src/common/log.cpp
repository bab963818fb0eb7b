#include "common/log.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>

#include "common/knobs.hpp"

namespace lazydram {

namespace {
LogLevel g_level = LogLevel::kWarn;
bool g_level_set = false;

LogLevel effective_level() {
  if (!g_level_set) {
    // Set first: a malformed LAZYDRAM_LOG warns through log_warn at the
    // default level. The word list is silent|warn|info|debug|0|1|2|3.
    g_level_set = true;
    g_level = static_cast<LogLevel>(
        knobs::word_index(knobs::kLog, knobs::text(knobs::kLog)).value_or(1) % 4);
  }
  return g_level;
}

// Serialized writer state. The mutex covers formatting state too (the rate
// bucket), not just the fwrite, so a line and its bookkeeping are atomic.
std::mutex g_log_mu;

// Token bucket for the leveled helpers: kBurst lines instantly, then
// kRefillPerSec sustained. Generous enough that no legitimate site ever hits
// it; a per-cycle warn loop in a multi-million-cycle run does.
constexpr double kBurst = 500.0;
constexpr double kRefillPerSec = 250.0;
double g_tokens = kBurst;
std::uint64_t g_suppressed = 0;
std::chrono::steady_clock::time_point g_last_refill;
bool g_bucket_init = false;

// Formats prefix + message + '\n' into one buffer and writes it with a
// single fwrite so concurrent callers cannot interleave partial lines.
// Must be called with g_log_mu held.
void write_line_locked(const char* prefix, const char* fmt, va_list args) {
  char buf[1024];
  int n = std::snprintf(buf, sizeof(buf), "%s", prefix);
  if (n < 0) return;
  n = std::min(n, static_cast<int>(sizeof(buf)) - 2);
  const int body = std::vsnprintf(buf + n, sizeof(buf) - 1 - n, fmt, args);
  if (body > 0) n = std::min(n + body, static_cast<int>(sizeof(buf)) - 2);
  buf[n] = '\n';
  std::fwrite(buf, 1, static_cast<std::size_t>(n) + 1, stderr);
}

// Must be called with g_log_mu held. Returns false when the line should be
// dropped (bucket empty).
bool take_token_locked() {
  const auto now = std::chrono::steady_clock::now();
  if (!g_bucket_init) {
    g_last_refill = now;
    g_bucket_init = true;
  }
  const double dt = std::chrono::duration<double>(now - g_last_refill).count();
  g_last_refill = now;
  g_tokens = std::min(kBurst, g_tokens + dt * kRefillPerSec);
  if (g_tokens < 1.0) {
    ++g_suppressed;
    return false;
  }
  g_tokens -= 1.0;
  if (g_suppressed > 0) {
    std::fprintf(stderr,
                 "[lazydram:warn] log rate limit: suppressed %llu line(s)\n",
                 static_cast<unsigned long long>(g_suppressed));
    g_suppressed = 0;
  }
  return true;
}

void vlog(const char* prefix, const char* fmt, va_list args, bool rate_limited) {
  std::lock_guard<std::mutex> lock(g_log_mu);
  if (rate_limited && !take_token_locked()) return;
  write_line_locked(prefix, fmt, args);
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level = level;
  g_level_set = true;
}

LogLevel log_level() { return effective_level(); }

void log_warn(const char* fmt, ...) {
  if (effective_level() < LogLevel::kWarn) return;
  va_list args;
  va_start(args, fmt);
  vlog("[lazydram:warn] ", fmt, args, /*rate_limited=*/true);
  va_end(args);
}

void log_info(const char* fmt, ...) {
  if (effective_level() < LogLevel::kInfo) return;
  va_list args;
  va_start(args, fmt);
  vlog("[lazydram] ", fmt, args, /*rate_limited=*/true);
  va_end(args);
}

void log_debug(const char* fmt, ...) {
  if (effective_level() < LogLevel::kDebug) return;
  va_list args;
  va_start(args, fmt);
  vlog("[lazydram:debug] ", fmt, args, /*rate_limited=*/true);
  va_end(args);
}

void log_status(const char* fmt, ...) {
  if (effective_level() == LogLevel::kSilent) return;
  va_list args;
  va_start(args, fmt);
  vlog("[lazydram] ", fmt, args, /*rate_limited=*/false);
  va_end(args);
}

}  // namespace lazydram
