#include "telemetry/telemetry.hpp"


#include "telemetry/chrome_trace.hpp"

namespace lazydram::telemetry {

bool Telemetry::open_jsonl_trace(const std::string& path) {
  auto sink = std::make_unique<JsonlTraceSink>(path);
  if (!sink->ok()) return false;  // Already warned by the sink.
  owned_sink_ = std::move(sink);
  tracer_.set_sink(owned_sink_.get());
  return true;
}

bool Telemetry::open_chrome_trace(const std::string& path, double core_to_mem) {
  auto sink = std::make_unique<ChromeTraceSink>(path, core_to_mem);
  if (!sink->ok()) return false;  // Already warned by the sink.
  owned_sink_ = std::move(sink);
  tracer_.set_sink(owned_sink_.get());
  return true;
}

void Telemetry::enable_lifecycle(std::uint64_t sample_every) {
  lifecycle_ = std::make_unique<LifecycleCollector>(&tracer_, sample_every);
}

void Telemetry::enable_flight(std::size_t depth) {
  if (depth == 0) return;
  flight_ = std::make_unique<FlightRecorder>(depth);
  tracer_.set_flight(flight_.get());
}

ChromeTraceSink* Telemetry::chrome_sink() {
  return dynamic_cast<ChromeTraceSink*>(owned_sink_.get());
}

}  // namespace lazydram::telemetry
