// composim: span/counter profiler with Chrome trace_event export.
//
// The concrete ProfileSink (sim/profile.hpp): records spans, async spans,
// instants and counter step series against Simulator::now(), and dumps
// the standard Chrome trace_event JSON that chrome://tracing and Perfetto
// load directly. Tracks map to trace "threads" (one row each, named via
// thread_name metadata); async spans use the 'b'/'e' phases keyed by
// correlation id so overlapping fabric flows render as interval tracks;
// counters use the 'C' phase, one record per change of value. The records
// are the profiler's one copy of what the run did: every consumer (Chrome
// export, telemetry::analysis) reads what it needs from them.
//
// Records are small plain structs: track, category and name are keys into
// one string table the profiler owns, and arguments live in one flat arena
// with interned keys (DESIGN.md §10). Strings are materialized only at
// export, which streams the trace text straight from the records.
//
// Everything is a no-op once finalized, and components only reach the
// profiler through Simulator::profiler() (nullptr when absent), so an
// untraced run pays one branch per potential record.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"

namespace composim::telemetry {

class Profiler;

/// A Profiler's Chrome trace_event JSON, serialized on demand straight
/// from its records. A view, not a copy: it refers to the profiler and
/// reads the records when dump() runs, so it must not outlive the
/// profiler, and a dump shows the records as of the dump. Take it and
/// dump it in one expression (`prof.chromeTrace().dump(-1)`).
class [[nodiscard]] ChromeTrace {
 public:
  explicit ChromeTrace(const Profiler& profiler) : profiler_(profiler) {}

  /// The trace text; indent < 0 means compact single-line output. Bytes
  /// are exactly those falcon::Json::dump(indent) gives for the same
  /// document (both go through falcon::JsonWriter).
  std::string dump(int indent = 2) const;

 private:
  const Profiler& profiler_;
};

class Profiler final : public ProfileSink {
 public:
  /// Construction does NOT install the profiler; call
  /// sim.setProfiler(&profiler) to start receiving component spans.
  explicit Profiler(Simulator& sim);

  // --- ProfileSink ---
  ProfileKey intern(std::string_view s) override;
  CounterKey counterKey(std::string_view counter,
                        std::string_view series) override;
  void beginSpan(ProfileKey track, ProfileKey category, ProfileKey name,
                 const ProfileArgs& args = {}) override;
  void endSpan(ProfileKey track, const ProfileArgs& args = {}) override;
  AsyncSpanId beginAsyncSpan(ProfileKey category, ProfileKey name,
                             const ProfileArgs& args = {}) override;
  void endAsyncSpan(AsyncSpanId id, const ProfileArgs& args = {}) override;
  void setCounter(CounterKey counter, double value) override;
  void instant(ProfileKey category, ProfileKey name,
               const ProfileArgs& args = {}) override;

  std::uint64_t newCorrelation() override {
    return recording() ? next_corr_++ : 0;
  }

  /// The string an interned key stands for.
  const std::string& str(ProfileKey key) const { return *strings_[key]; }
  /// Number of interned strings; their keys are 0 .. stringCount() - 1.
  std::size_t stringCount() const { return strings_.size(); }
  /// The key `s` is interned under, or kNoProfileKey if it never was.
  ProfileKey find(std::string_view s) const;

  /// Number of records captured so far (spans count begin+end separately).
  std::size_t recordCount() const { return records_.size(); }

  /// Freeze the trace: records the end time and detaches from the
  /// Simulator, so the Profiler may safely outlive the system that
  /// produced the trace (Experiment hands it back to the caller this
  /// way). Recording stops.
  void finalize();

  /// The trace as Chrome trace_event JSON (a view; see ChromeTrace).
  /// Events are emitted in the documented deterministic export order (see
  /// exportOrder()), so identical runs produce byte-identical traces even
  /// when many tracks record at the same simulated timestamp.
  ChromeTrace chromeTrace() const { return ChromeTrace(*this); }
  /// Write chromeTrace() to `path`; Internal status on I/O failure.
  Status writeChromeTrace(const std::string& path, int indent = -1) const;

  /// Deterministic export order over the records, the tie-break contract
  /// for colliding timestamps: records sort by (start time, track id,
  /// record sequence). Within one track the recording sequence is already
  /// depth-correct (an end that shares its timestamp with a sibling begin
  /// was recorded first, inner spans close before outer ones), so
  /// preserving per-track sequence keeps every B/E and b/e pairing valid;
  /// ordering same-timestamp records of *different* tracks by track id
  /// removes the cross-track interleaving that used to depend on event
  /// execution order. Track ids are assigned in first-use order and names
  /// are fixed per track, so the full key is equivalent to the documented
  /// (start, depth, name, seq) ordering restricted to valid traces.
  ///
  /// Invariant the computation relies on: records are stamped with the
  /// simulator's monotone clock and a fork (setState) restores a prefix of
  /// such a sequence, so recording order is already sorted by time. The
  /// order is therefore built in one pass: each maximal run of equal
  /// timestamps is stable-sorted by track id, which is the same
  /// permutation the full (time, tid, seq) sort gives.
  std::vector<std::size_t> exportOrder() const;

  /// Opaque full-trace snapshot (string table, records, arg arena, track
  /// table, open async spans, last counter values). A fork restores it into
  /// a fresh Profiler so the tail appends to the warmed prefix's trace
  /// exactly as a cold run would; open B records and async begins carry
  /// over and are closed by the tail. Copy-on-fork rather than serialize:
  /// everything is flat value-type data and the tail mutates it in place.
  struct State;
  State state() const;
  void setState(const State& st);

  /// One argument in the arena: an interned key and either a number or
  /// an interned string value.
  struct Arg {
    ProfileKey key = kNoProfileKey;
    ProfileKey str = kNoProfileKey;  // kNoProfileKey: numeric
    double num = 0.0;
    bool isString() const { return str != kNoProfileKey; }
  };

  /// One captured event, exposed read-only so telemetry::analysis can
  /// replay the trace (span trees, causal joins, bucket sweeps) without a
  /// JSON round-trip. Records are stored in recording order; use
  /// exportOrder() for the canonical cross-track presentation order.
  struct Record {
    SimTime time = 0.0;
    AsyncSpanId id = kInvalidAsyncSpan;
    std::uint32_t tid = 0;                 // index into tracks()
    ProfileKey category = kNoProfileKey;   // none on 'E' records
    ProfileKey name = kNoProfileKey;       // none on 'E' records
    std::uint32_t args_begin = 0;          // first Arg in the arena
    std::uint32_t args_count = 0;
    char phase = 'B';  // B/E nested, b/e async, C counter, i instant
  };
  const std::vector<Record>& records() const { return records_; }
  /// A record's arguments, in emission order.
  std::span<const Arg> args(const Record& r) const {
    return {args_.data() + r.args_begin, r.args_count};
  }
  /// Track name keys indexed by Record::tid (first-use order).
  const std::vector<ProfileKey>& tracks() const { return tracks_; }
  /// The trace's end time once finalized (== the Simulator clock at
  /// finalize()); 0 before that.
  SimTime endTime() const { return end_time_; }

 private:
  struct CounterState {
    ProfileKey counter = kNoProfileKey;
    ProfileKey series = kNoProfileKey;
    bool set = false;    // updated at least once
    double value = 0.0;  // last recorded value (setCounter dedups on it)
  };
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool recording() const { return sim_ != nullptr; }
  std::uint32_t trackId(ProfileKey track);
  void push(char phase, std::uint32_t tid, ProfileKey category,
            ProfileKey name, AsyncSpanId id, const ProfileArgs& args);
  /// Rebuild the lookup indexes from the string, track and counter
  /// tables after they were replaced.
  void reindex();

  Simulator* sim_;  // null after finalize()
  SimTime end_time_ = 0.0;
  // String table: keys_ owns the strings (node-based, so their addresses
  // are stable); strings_[key] points at the string interned as `key`.
  std::unordered_map<std::string, ProfileKey, StringHash, std::equal_to<>>
      keys_;
  std::vector<const std::string*> strings_;
  ProfileKey counter_category_;  // "counter", the category of 'C' records
  std::vector<Record> records_;
  std::vector<Arg> args_;
  std::vector<ProfileKey> tracks_;          // tid -> name key
  std::vector<std::uint32_t> track_of_key_;  // name key -> tid (or none)
  std::unordered_map<AsyncSpanId, std::size_t> open_async_;  // id -> begin
  std::vector<CounterState> counters_;       // by CounterKey
  std::unordered_map<std::uint64_t, CounterKey> counter_keys_;
  AsyncSpanId next_async_ = 1;
  std::uint64_t next_corr_ = 1;
};

struct Profiler::State {
  std::vector<std::string> strings;  // by key
  std::vector<Record> records;
  std::vector<Arg> args;
  std::vector<ProfileKey> tracks;
  std::unordered_map<AsyncSpanId, std::size_t> open_async;
  std::vector<CounterState> counters;
  AsyncSpanId next_async = 1;
  std::uint64_t next_corr = 1;
};

}  // namespace composim::telemetry
