// composim: span/counter profiler with Chrome trace_event export.
//
// The concrete ProfileSink (sim/profile.hpp): records spans, async spans,
// instants and time-weighted counters against Simulator::now(), and dumps
// the standard Chrome trace_event JSON that chrome://tracing and Perfetto
// load directly. Tracks map to trace "threads" (one row each, named via
// thread_name metadata); async spans use the 'b'/'e' phases keyed by
// correlation id so overlapping fabric flows render as interval tracks;
// counters use the 'C' phase and also keep a time-weighted integral so
// tests and reports can ask for a mean utilization without replaying the
// trace.
//
// Records are small plain structs: track, category and name are keys into
// one string table the profiler owns, and arguments live in one flat arena
// with interned keys (DESIGN.md §10). Strings are materialized only at
// export.
//
// Everything is a no-op while disabled, and components only reach the
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
#include "falcon/json.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"

namespace composim::telemetry {

class Profiler final : public ProfileSink {
 public:
  /// Construction does NOT install the profiler; call
  /// sim.setProfiler(&profiler) to start receiving component spans.
  explicit Profiler(Simulator& sim);

  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

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
  /// The key `s` is interned under, or kNoProfileKey if it never was.
  ProfileKey find(std::string_view s) const;

  /// Number of records captured so far (spans count begin+end separately).
  std::size_t recordCount() const { return records_.size(); }

  /// Cap the record vector at `cap` entries (0 = unbounded, the default).
  /// Once the cap is reached, NEW spans/counters/instants are dropped
  /// whole — a begin that would exceed the cap is suppressed together
  /// with its matching end, so the recorded stream stays balanced — while
  /// ends of spans that were recorded before the cap still append (a
  /// bounded overshoot of at most the open-span depth). Counter integrals
  /// keep updating so counterMean() stays exact even when the 'C' records
  /// are dropped. Long serving-style runs use this to bound span memory.
  void setMaxRecords(std::size_t cap) { max_records_ = cap; }
  std::size_t maxRecords() const { return max_records_; }
  /// Records suppressed by the max-record policy so far.
  std::uint64_t droppedRecords() const { return dropped_records_; }

  /// Whether the counter series was ever set. counterValue/counterMean
  /// return 0.0 both for "never updated" and for a genuine 0.0; callers
  /// that need to tell the two apart check this first.
  bool hasCounter(std::string_view counter, std::string_view series) const;
  /// Latest value of a counter series (0 if never set).
  double counterValue(std::string_view counter, std::string_view series) const;
  /// Time-weighted mean of a counter series from its first update to
  /// now() (or to the finalize() time once finalized). 0 if never set.
  double counterMean(std::string_view counter, std::string_view series) const;

  /// Freeze the trace: closes the counter integrals at the current time
  /// and detaches from the Simulator, so the Profiler may safely outlive
  /// the system that produced the trace (Experiment hands it back to the
  /// caller this way). Recording stops.
  void finalize();

  /// The trace as a Chrome trace_event JSON document. Events are emitted
  /// in the documented deterministic export order (see exportOrder()), so
  /// identical runs produce byte-identical traces even when many tracks
  /// record at the same simulated timestamp.
  falcon::Json chromeTrace() const;
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
  std::vector<std::size_t> exportOrder() const;

  /// Opaque full-trace snapshot (string table, records, arg arena, track
  /// table, open async spans, counter integrals). A fork restores it into
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
    bool set = false;  // updated at least once
    double value = 0.0;
    SimTime since = 0.0;
    SimTime first = 0.0;
    double weighted_sum = 0.0;  // integral of value dt up to `since`
  };
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  bool recording() const { return enabled_ && sim_ != nullptr; }
  bool atCapacity() const {
    return max_records_ > 0 && records_.size() >= max_records_;
  }
  SimTime now() const { return sim_ != nullptr ? sim_->now() : end_time_; }
  std::uint32_t trackId(ProfileKey track);
  void push(char phase, std::uint32_t tid, ProfileKey category,
            ProfileKey name, AsyncSpanId id, const ProfileArgs& args);
  const CounterState* findCounter(std::string_view counter,
                                  std::string_view series) const;
  /// Rebuild the lookup indexes from the string, track and counter
  /// tables after they were replaced.
  void reindex();

  Simulator* sim_;  // null after finalize()
  bool enabled_ = true;
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
  // Max-record drop policy (0 = unbounded). drop_depth_[tid] counts open
  // track spans whose begin was suppressed, so the matching ends are
  // suppressed too and the recorded stream stays balanced.
  std::size_t max_records_ = 0;
  std::uint64_t dropped_records_ = 0;
  std::vector<std::uint32_t> drop_depth_;  // by tid
};

struct Profiler::State {
  bool enabled = true;
  std::vector<std::string> strings;  // by key
  std::vector<Record> records;
  std::vector<Arg> args;
  std::vector<ProfileKey> tracks;
  std::unordered_map<AsyncSpanId, std::size_t> open_async;
  std::vector<CounterState> counters;
  AsyncSpanId next_async = 1;
  std::uint64_t next_corr = 1;
  std::size_t max_records = 0;
  std::uint64_t dropped_records = 0;
  std::vector<std::uint32_t> drop_depth;
};

}  // namespace composim::telemetry
