// Minimal leveled logging. Warnings are on by default (misconfiguration must
// not fail silently); info/debug are off so benches print only their tables.
// The level can be raised per-process with set_log_level() or
// knobs::kLog, read once at first use.
//
// Every line goes through one mutex-guarded writer that formats the whole
// line into a buffer and emits it with a single fwrite, so concurrent sweep
// workers can never interleave partial lines. The leveled
// helpers additionally pass a token-bucket rate limiter (a misbehaving
// per-cycle warn site cannot flood stderr); suppressed lines are counted and
// acknowledged when output resumes.
#pragma once

#include <cstdarg>

namespace lazydram {

enum class LogLevel { kSilent = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

void set_log_level(LogLevel level);
LogLevel log_level();

/// printf-style; a newline is appended.
void log_warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log_info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log_debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Operational status line (heartbeats, flight dumps): printed at every
/// level except silent, serialized with the other writers, and exempt from
/// the rate limiter — a status line must never be the casualty of a warn
/// flood.
void log_status(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace lazydram
