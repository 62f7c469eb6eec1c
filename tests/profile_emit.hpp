// Test helpers that emit through a Profiler's key-based ProfileSink API by
// string, interning on every call. Components intern once and cache their
// keys; tests favour readable call sites instead. traceDocument() reads a
// profiler's Chrome trace back as a document for tests that inspect it.
#pragma once

#include <string_view>

#include "falcon/json.hpp"
#include "telemetry/profiler.hpp"

namespace composim::telemetry {

inline void beginSpan(Profiler& p, std::string_view track,
                      std::string_view category, std::string_view name,
                      const ProfileArgs& args = {}) {
  p.beginSpan(p.intern(track), p.intern(category), p.intern(name), args);
}

inline void endSpan(Profiler& p, std::string_view track,
                    const ProfileArgs& args = {}) {
  p.endSpan(p.intern(track), args);
}

inline AsyncSpanId beginAsyncSpan(Profiler& p, std::string_view category,
                                  std::string_view name,
                                  const ProfileArgs& args = {}) {
  return p.beginAsyncSpan(p.intern(category), p.intern(name), args);
}

inline void instant(Profiler& p, std::string_view category,
                    std::string_view name, const ProfileArgs& args = {}) {
  p.instant(p.intern(category), p.intern(name), args);
}

inline void setCounter(Profiler& p, std::string_view counter,
                       std::string_view series, double value) {
  p.setCounter(p.counterKey(counter, series), value);
}

/// The exported Chrome trace, parsed.
inline falcon::Json traceDocument(const Profiler& p) {
  return falcon::Json::parse(p.chromeTrace().dump(-1));
}

}  // namespace composim::telemetry
