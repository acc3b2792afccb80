#include "util/log.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace dreamsim {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarning};
std::mutex g_sink_mutex;
/// The sink is a function-local static (first-use construction). Callers
/// hold g_sink_mutex for the returned reference's whole use.
Log::Sink& SinkStorage() {
  static Log::Sink sink;  // empty => default stderr sink
  return sink;
}

void DefaultSink(LogLevel level, std::string_view message) {
  std::cerr << '[' << ToString(level) << "] " << message << '\n';
}

}  // namespace

std::string_view ToString(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarning: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void Log::SetLevel(LogLevel level) { g_level.store(level); }

LogLevel Log::level() { return g_level.load(); }

void Log::SetSink(Sink sink) {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  SinkStorage() = std::move(sink);
}

void Log::Write(LogLevel level, std::string_view message) {
  if (level < Log::level()) return;
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (const Sink& sink = SinkStorage()) {
    sink(level, message);
  } else {
    DefaultSink(level, message);
  }
}

}  // namespace dreamsim
