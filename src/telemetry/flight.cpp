#include "telemetry/flight.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace lazydram::telemetry {

namespace {

struct FlightRegistry {
  std::mutex mu;
  std::vector<FlightRecorder*> recorders;
};

FlightRegistry& flight_registry() {
  static FlightRegistry* r = new FlightRegistry();
  return *r;
}

void flight_assert_hook(const char* expr, const char* file, int line,
                        const char* msg) {
  std::string detail = std::string(expr) + " at " + file + ":" + std::to_string(line);
  if (msg != nullptr && msg[0] != '\0') {
    detail += ": ";
    detail += msg;
  }
  FlightRecorder::dump_all("assert", detail);
}

void write_json_escaped(std::FILE* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        std::fputs("\\\"", out);
        break;
      case '\\':
        std::fputs("\\\\", out);
        break;
      case '\n':
        std::fputs("\\n", out);
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::fprintf(out, "\\u%04x", c);
        } else {
          std::fputc(c, out);
        }
    }
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t depth) : depth_(depth) {
  // One ring per possible channel; record() drops higher channel ids.
  rings_.resize(kMaxChannels);
  FlightRegistry& reg = flight_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.recorders.push_back(this);
  // The first recorder arms the LD_ASSERT crash hook for the process.
  if (detail::assert_hook() == nullptr) {
    detail::assert_hook() = &flight_assert_hook;
  }
}

FlightRecorder::~FlightRecorder() {
  FlightRegistry& reg = flight_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.recorders.erase(
      std::remove(reg.recorders.begin(), reg.recorders.end(), this),
      reg.recorders.end());
}

void FlightRecorder::record(const TraceEvent& event) {
  if (depth_ == 0 || event.channel >= rings_.size()) return;
  Ring& ring = rings_[event.channel];
  if (ring.buf.size() < depth_) {
    ring.buf.push_back(event);
  } else {
    ring.buf[ring.total % depth_] = event;
  }
  ++ring.total;
}

std::uint64_t FlightRecorder::recorded() const {
  std::uint64_t total = 0;
  for (const Ring& ring : rings_) total += ring.total;
  return total;
}

std::vector<TraceEvent> FlightRecorder::ordered_events() const {
  struct Tagged {
    TraceEvent event;
    std::uint64_t seq = 0;  // per-channel arrival order
  };
  std::vector<Tagged> all;
  for (const Ring& ring : rings_) {
    const std::uint64_t n = ring.buf.size();
    const std::uint64_t oldest = ring.total - n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t seq = oldest + i;
      all.push_back({ring.buf[n < depth_ ? i : seq % depth_], seq});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    if (x.event.cycle != y.event.cycle) return x.event.cycle < y.event.cycle;
    if (x.event.channel != y.event.channel) return x.event.channel < y.event.channel;
    return x.seq < y.seq;
  });
  std::vector<TraceEvent> out;
  out.reserve(all.size());
  for (const Tagged& t : all) out.push_back(t.event);
  return out;
}

void FlightRecorder::dump(std::FILE* out, const char* reason,
                          const std::string& detail) const {
  std::fputs("{\"reason\":\"", out);
  write_json_escaped(out, reason);
  std::fputs("\",\"detail\":\"", out);
  write_json_escaped(out, detail);
  std::fprintf(out, "\",\"depth\":%zu,\"recorded\":%llu,\"events\":[", depth_,
               static_cast<unsigned long long>(recorded()));
  const std::vector<TraceEvent> events = ordered_events();
  bool first = true;
  for (const TraceEvent& e : events) {
    std::fprintf(out,
                 "%s\n  {\"type\":\"%s\",\"cycle\":%llu,\"ch\":%u,\"bank\":%d,"
                 "\"a\":%llu,\"b\":%llu,\"f\":%.6g}",
                 first ? "" : ",", event_kind_name(e.kind),
                 static_cast<unsigned long long>(e.cycle), e.channel, e.bank,
                 static_cast<unsigned long long>(e.a),
                 static_cast<unsigned long long>(e.b), e.f);
    first = false;
  }
  std::fputs(events.empty() ? "]}" : "\n]}", out);
}

void FlightRecorder::dump_all(const char* reason, const std::string& detail) {
  FlightRegistry& reg = flight_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.recorders.empty()) return;
  const std::string path = dump_path();
  std::FILE* out = std::fopen(path.c_str(), "w");
  std::size_t total_events = 0;
  if (out != nullptr) {
    std::fputs("{\"flight\":[\n", out);
    bool first = true;
    for (const FlightRecorder* rec : reg.recorders) {
      if (!first) std::fputs(",\n", out);
      rec->dump(out, reason, detail);
      total_events += rec->ordered_events().size();
      first = false;
    }
    std::fputs("\n]}\n", out);
    std::fclose(out);
  } else {
    for (const FlightRecorder* rec : reg.recorders) {
      total_events += rec->ordered_events().size();
    }
  }
  log_status("flight dump [%s]: %s — %zu event(s) from %zu recorder(s) %s %s",
             reason, detail.c_str(), total_events, reg.recorders.size(),
             out != nullptr ? "written to" : "NOT written (open failed):",
             path.c_str());
}

std::string FlightRecorder::dump_path() {
  const char* env = std::getenv("LAZYDRAM_FLIGHT_DUMP");
  if (env != nullptr && env[0] != '\0') return env;
  return "lazydram_flight.json";
}

}  // namespace lazydram::telemetry
