// composim: span-based profiling hook for the simulation kernel.
//
// ProfileSink is the abstract interface components emit spans and counters
// against; the Simulator owns an optional pointer to one (nullptr = off,
// every call site guards on that, so a disabled profiler costs one branch).
// The concrete implementation with Chrome-trace export lives in
// telemetry/profiler.hpp; this header stays dependency-free so the fabric,
// collectives and dl layers can instrument themselves without reaching
// above the sim layer.
//
// Two span families, matching how time is structured in a discrete-event
// simulation:
//
//  * Track spans (beginSpan/endSpan): strictly nested within a named
//    track. Use for phases that are sequential per logical actor — a
//    trainer's iteration phases, a communicator's in-order op queue. Each
//    track renders as one "thread" row in chrome://tracing / Perfetto.
//  * Async spans (beginAsyncSpan/endAsyncSpan): keyed by correlation id,
//    free to overlap arbitrarily. Use for concurrent work — fabric flows,
//    prefetch pipelines.
//
// Counters (setCounter) are time-weighted sampled values (link utilization,
// queue depth): each update is timestamped at Simulator::now() and the sink
// integrates value x time between updates.
//
// Records name their track, category and name by interned key, not by
// string: an emitter interns each string once (intern/counterKey) and
// passes the key on every record. Keys belong to the sink's string table;
// ProfileKeyCache holds an emitter's keys and re-interns them when the
// table changes (another sink, or a restored snapshot).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace composim {

/// A string interned in one sink's table (ProfileSink::intern).
using ProfileKey = std::uint32_t;
constexpr ProfileKey kNoProfileKey = UINT32_MAX;

/// A (counter, series) pair interned by ProfileSink::counterKey.
using CounterKey = std::uint32_t;
constexpr CounterKey kNoCounterKey = UINT32_MAX;

/// One key/value argument attached to a span or instant event (a number or
/// a string; numbers are carried as double). Key and string value are
/// views: they must stay valid for the duration of the sink call that
/// receives them, which interns what it keeps.
struct ProfileArg {
  std::string_view key;
  std::string_view str;
  double num = 0.0;
  bool is_string = false;

  ProfileArg() = default;
  template <typename T, std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  ProfileArg(std::string_view k, T v) : key(k), num(static_cast<double>(v)) {}
  ProfileArg(std::string_view k, std::string_view v)
      : key(k), str(v), is_string(true) {}
};

/// A record's arguments, held inline so emitting one costs no allocation.
class ProfileArgs {
 public:
  /// Most arguments one record can carry. Every emitter must stay at or
  /// below it (the largest, Communicator::beginOp, passes 4): a 7th
  /// argument throws std::length_error, and only when a sink is attached,
  /// so an untraced run would not show the overflow.
  static constexpr std::size_t kCapacity = 6;

  ProfileArgs() = default;
  ProfileArgs(std::initializer_list<ProfileArg> args) {
    for (const ProfileArg& a : args) push_back(a);
  }
  void push_back(const ProfileArg& a) {
    if (size_ == kCapacity) {
      throw std::length_error("ProfileArgs: more than 6 arguments");
    }
    args_[size_++] = a;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const ProfileArg* begin() const { return args_.data(); }
  const ProfileArg* end() const { return args_.data() + size_; }

 private:
  std::array<ProfileArg, kCapacity> args_{};
  std::size_t size_ = 0;
};

/// Correlation id for async spans; 0 is never issued.
using AsyncSpanId = std::uint64_t;
constexpr AsyncSpanId kInvalidAsyncSpan = 0;

class ProfileSink {
 public:
  ProfileSink() : table_(freshTable()) {}
  ProfileSink(const ProfileSink&) = delete;
  ProfileSink& operator=(const ProfileSink&) = delete;
  virtual ~ProfileSink() = default;

  /// Key for `s` in this sink's string table (interned on first use).
  virtual ProfileKey intern(std::string_view s) = 0;
  /// Key for series `series` of counter `counter`, for setCounter.
  virtual CounterKey counterKey(std::string_view counter,
                                std::string_view series) = 0;

  /// Open a nested span on `track`. Spans on one track must close in LIFO
  /// order (endSpan closes the innermost open span of that track).
  virtual void beginSpan(ProfileKey track, ProfileKey category,
                         ProfileKey name, const ProfileArgs& args = {}) = 0;
  virtual void endSpan(ProfileKey track, const ProfileArgs& args = {}) = 0;

  /// Open an overlapping span; returns the id endAsyncSpan must be given.
  virtual AsyncSpanId beginAsyncSpan(ProfileKey category, ProfileKey name,
                                     const ProfileArgs& args = {}) = 0;
  virtual void endAsyncSpan(AsyncSpanId id, const ProfileArgs& args = {}) = 0;

  /// Set a counter series to `value` as of now().
  virtual void setCounter(CounterKey counter, double value) = 0;

  /// Zero-duration marker event.
  virtual void instant(ProfileKey category, ProfileKey name,
                       const ProfileArgs& args = {}) = 0;

  /// Allocate a fresh correlation id for causal linking across spans: an
  /// emitter stamps the same id on a parent span (e.g. a collective op)
  /// and on every child it causes (e.g. the fabric flows the op injects,
  /// threaded through FlowOptions::correlation), so offline analysis can
  /// rebuild the causal chain without guessing from timestamps. Ids are
  /// drawn from the sink's own deterministic sequence; 0 means "no
  /// correlation" and is what the default implementation returns, so
  /// sinks that don't analyze causality can ignore the whole mechanism.
  virtual std::uint64_t newCorrelation() { return 0; }

  /// Identity of the string table this sink's keys index. No two sinks
  /// share one, and it changes whenever the table is replaced, so an
  /// emitter's cached keys are valid exactly while it is unchanged.
  std::uint64_t tableId() const { return table_; }

 protected:
  /// Call after replacing the string table wholesale.
  void renewTable() { table_ = freshTable(); }

 private:
  static std::uint64_t freshTable() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t table_;
};

/// An emitter's interned keys: `Keys` is default-constructible and built
/// as Keys(sink, extra...) (interning what it needs); get() rebuilds it
/// whenever the sink's table differs from the one the keys came from.
template <typename Keys>
class ProfileKeyCache {
 public:
  template <typename... Extra>
  Keys& get(ProfileSink& sink, const Extra&... extra) {
    if (table_ != sink.tableId()) {
      keys_ = Keys(sink, extra...);
      table_ = sink.tableId();
    }
    return keys_;
  }

 private:
  std::uint64_t table_ = 0;  // tables are numbered from 1
  Keys keys_{};
};

}  // namespace composim
