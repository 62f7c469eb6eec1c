#include "telemetry/profiler.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace composim::telemetry {

namespace {

constexpr int kTracePid = 1;
constexpr std::uint32_t kNoTrack = UINT32_MAX;

}  // namespace

Profiler::Profiler(Simulator& sim) : sim_(&sim) {
  counter_category_ = intern("counter");
}

ProfileKey Profiler::intern(std::string_view s) {
  if (auto it = keys_.find(s); it != keys_.end()) return it->second;
  const auto key = static_cast<ProfileKey>(strings_.size());
  const auto [it, inserted] = keys_.emplace(std::string(s), key);
  strings_.push_back(&it->first);
  track_of_key_.push_back(kNoTrack);
  return key;
}

ProfileKey Profiler::find(std::string_view s) const {
  const auto it = keys_.find(s);
  return it == keys_.end() ? kNoProfileKey : it->second;
}

CounterKey Profiler::counterKey(std::string_view counter,
                                std::string_view series) {
  const ProfileKey c = intern(counter);
  const ProfileKey s = intern(series);
  const std::uint64_t pair = (std::uint64_t{c} << 32) | s;
  if (auto it = counter_keys_.find(pair); it != counter_keys_.end()) {
    return it->second;
  }
  const auto key = static_cast<CounterKey>(counters_.size());
  counters_.push_back(CounterState{c, s});
  counter_keys_.emplace(pair, key);
  return key;
}

std::uint32_t Profiler::trackId(ProfileKey track) {
  std::uint32_t& tid = track_of_key_[track];
  if (tid == kNoTrack) {
    tid = static_cast<std::uint32_t>(tracks_.size());
    tracks_.push_back(track);
    drop_depth_.push_back(0);
  }
  return tid;
}

void Profiler::push(char phase, std::uint32_t tid, ProfileKey category,
                    ProfileKey name, AsyncSpanId id, const ProfileArgs& args) {
  records_.push_back(Record{now(), id, tid, category, name,
                            static_cast<std::uint32_t>(args_.size()),
                            static_cast<std::uint32_t>(args.size()), phase});
  for (const ProfileArg& a : args) {
    args_.push_back(Arg{intern(a.key),
                        a.is_string ? intern(a.str) : kNoProfileKey, a.num});
  }
}

void Profiler::beginSpan(ProfileKey track, ProfileKey category,
                         ProfileKey name, const ProfileArgs& args) {
  if (!recording()) return;
  const std::uint32_t tid = trackId(track);
  if (atCapacity()) {
    // Drop the whole span: remember the suppressed depth so the matching
    // endSpan (LIFO on this track) is suppressed too.
    ++dropped_records_;
    ++drop_depth_[tid];
    return;
  }
  push('B', tid, category, name, kInvalidAsyncSpan, args);
}

void Profiler::endSpan(ProfileKey track, const ProfileArgs& args) {
  if (!recording()) return;
  const std::uint32_t tid = trackId(track);
  if (drop_depth_[tid] > 0) {
    // This end matches a begin the cap suppressed.
    --drop_depth_[tid];
    ++dropped_records_;
    return;
  }
  // Ends of spans recorded before the cap always append (bounded
  // overshoot), keeping the recorded stream balanced.
  push('E', tid, kNoProfileKey, kNoProfileKey, kInvalidAsyncSpan, args);
}

AsyncSpanId Profiler::beginAsyncSpan(ProfileKey category, ProfileKey name,
                                     const ProfileArgs& args) {
  if (!recording()) return kInvalidAsyncSpan;
  if (atCapacity()) {
    // Suppressed whole: the caller gets the invalid id, whose endAsyncSpan
    // is a no-op, so no unbalanced 'e' is ever recorded.
    ++dropped_records_;
    return kInvalidAsyncSpan;
  }
  const AsyncSpanId id = next_async_++;
  open_async_.emplace(id, records_.size());
  push('b', trackId(category), category, name, id, args);
  return id;
}

void Profiler::endAsyncSpan(AsyncSpanId id, const ProfileArgs& args) {
  if (!recording() || id == kInvalidAsyncSpan) return;
  auto it = open_async_.find(id);
  if (it == open_async_.end()) return;  // unknown or already closed
  // Chrome pairs async begin/end by (category, id); category/name are
  // repeated from the begin record for readability in raw JSON.
  const Record open = records_[it->second];
  open_async_.erase(it);
  push('e', open.tid, open.category, open.name, id, args);
}

void Profiler::setCounter(CounterKey counter, double value) {
  if (!recording()) return;
  const SimTime t = now();
  CounterState& s = counters_[counter];
  if (!s.set) {
    s.set = true;
    s.value = value;
    s.since = t;
    s.first = t;
  } else {
    if (s.value == value) return;  // no change: skip the duplicate record
    s.weighted_sum += s.value * (t - s.since);
    s.value = value;
    s.since = t;
  }
  // Past the cap the integral above still updates (counterMean stays
  // exact); only the trace record is suppressed.
  if (atCapacity()) {
    ++dropped_records_;
    return;
  }
  records_.push_back(Record{t, kInvalidAsyncSpan, trackId(s.counter),
                            counter_category_, s.counter,
                            static_cast<std::uint32_t>(args_.size()), 1, 'C'});
  args_.push_back(Arg{s.series, kNoProfileKey, value});
}

void Profiler::instant(ProfileKey category, ProfileKey name,
                       const ProfileArgs& args) {
  if (!recording()) return;
  if (atCapacity()) {
    ++dropped_records_;
    return;
  }
  push('i', trackId(category), category, name, kInvalidAsyncSpan, args);
}

const Profiler::CounterState* Profiler::findCounter(
    std::string_view counter, std::string_view series) const {
  const ProfileKey c = find(counter);
  const ProfileKey s = find(series);
  if (c == kNoProfileKey || s == kNoProfileKey) return nullptr;
  const auto it = counter_keys_.find((std::uint64_t{c} << 32) | s);
  if (it == counter_keys_.end()) return nullptr;
  const CounterState& st = counters_[it->second];
  return st.set ? &st : nullptr;
}

bool Profiler::hasCounter(std::string_view counter,
                          std::string_view series) const {
  return findCounter(counter, series) != nullptr;
}

double Profiler::counterValue(std::string_view counter,
                              std::string_view series) const {
  const CounterState* st = findCounter(counter, series);
  return st == nullptr ? 0.0 : st->value;
}

double Profiler::counterMean(std::string_view counter,
                             std::string_view series) const {
  const CounterState* st = findCounter(counter, series);
  if (st == nullptr) return 0.0;
  const SimTime end = now();
  const SimTime span = end - st->first;
  if (span <= 0.0) return st->value;
  const double integral = st->weighted_sum + st->value * (end - st->since);
  return integral / span;
}

Profiler::State Profiler::state() const {
  State st;
  st.enabled = enabled_;
  st.strings.reserve(strings_.size());
  for (const std::string* s : strings_) st.strings.push_back(*s);
  st.records = records_;
  st.args = args_;
  st.tracks = tracks_;
  st.open_async = open_async_;
  st.counters = counters_;
  st.next_async = next_async_;
  st.next_corr = next_corr_;
  st.max_records = max_records_;
  st.dropped_records = dropped_records_;
  st.drop_depth = drop_depth_;
  return st;
}

void Profiler::setState(const State& st) {
  enabled_ = st.enabled;
  keys_.clear();
  strings_.clear();
  for (const std::string& s : st.strings) {
    const auto [it, inserted] =
        keys_.emplace(s, static_cast<ProfileKey>(strings_.size()));
    strings_.push_back(&it->first);
  }
  counter_category_ = intern("counter");
  records_ = st.records;
  args_ = st.args;
  tracks_ = st.tracks;
  open_async_ = st.open_async;
  counters_ = st.counters;
  next_async_ = st.next_async;
  next_corr_ = st.next_corr;
  max_records_ = st.max_records;
  dropped_records_ = st.dropped_records;
  drop_depth_ = st.drop_depth;
  reindex();
  // Keys handed out before the restore index the old table.
  renewTable();
}

void Profiler::reindex() {
  track_of_key_.assign(strings_.size(), kNoTrack);
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    track_of_key_[tracks_[tid]] = static_cast<std::uint32_t>(tid);
  }
  counter_keys_.clear();
  for (std::size_t k = 0; k < counters_.size(); ++k) {
    const CounterState& c = counters_[k];
    counter_keys_.emplace((std::uint64_t{c.counter} << 32) | c.series,
                          static_cast<CounterKey>(k));
  }
}

void Profiler::finalize() {
  if (sim_ == nullptr) return;
  end_time_ = sim_->now();
  // Close every counter integral at the end time so means computed after
  // the Simulator is gone cover the full run.
  for (CounterState& st : counters_) {
    if (!st.set) continue;
    st.weighted_sum += st.value * (end_time_ - st.since);
    st.since = end_time_;
  }
  sim_ = nullptr;
}

std::vector<std::size_t> Profiler::exportOrder() const {
  std::vector<std::size_t> order(records_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // (time, tid, seq): recording order is already time-sorted (the sim
  // clock is monotone), so this only canonicalizes cross-track ties at
  // one timestamp. Per-track sequence is preserved (seq is the final
  // key), which is what keeps B/E nesting and b/e pairing valid.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     const Record& ra = records_[a];
                     const Record& rb = records_[b];
                     if (ra.time != rb.time) return ra.time < rb.time;
                     if (ra.tid != rb.tid) return ra.tid < rb.tid;
                     return a < b;
                   });
  return order;
}

falcon::Json Profiler::chromeTrace() const {
  using falcon::Json;
  using falcon::JsonArray;
  using falcon::JsonObject;
  // Built field by field into reserved containers: events never repeat a
  // field, so Json::set's duplicate-key scan is only needed for args.
  auto metadata = [](std::int64_t tid, const char* name,
                     const std::string& value) {
    JsonObject args;
    args.emplace_back("name", value);
    JsonObject meta;
    meta.reserve(5);
    meta.emplace_back("ph", "M");
    meta.emplace_back("pid", kTracePid);
    meta.emplace_back("tid", tid);
    meta.emplace_back("name", name);
    meta.emplace_back("args", std::move(args));
    return Json(std::move(meta));
  };
  JsonArray events;
  events.reserve(1 + tracks_.size() + records_.size());
  // Process + per-track thread names so Perfetto labels the rows.
  events.push_back(metadata(0, "process_name", "composim"));
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    events.push_back(metadata(static_cast<std::int64_t>(tid), "thread_name",
                              str(tracks_[tid])));
  }
  auto nonEmpty = [this](ProfileKey key) {
    return key != kNoProfileKey && !str(key).empty();
  };
  for (const std::size_t idx : exportOrder()) {
    const Record& r = records_[idx];
    const bool has_name = nonEmpty(r.name);
    const bool has_cat = nonEmpty(r.category);
    const bool has_id = r.id != kInvalidAsyncSpan;
    const bool has_scope = r.phase == 'i';
    const bool has_args = r.args_count > 0;
    JsonObject ev;
    ev.reserve(4 + has_name + has_cat + has_id + has_scope + has_args);
    ev.emplace_back("ph", std::string(1, r.phase));
    ev.emplace_back("ts", r.time * 1e6);  // trace_event timestamps are us
    ev.emplace_back("pid", kTracePid);
    ev.emplace_back("tid", static_cast<std::int64_t>(r.tid));
    if (has_name) ev.emplace_back("name", str(r.name));
    if (has_cat) ev.emplace_back("cat", str(r.category));
    if (has_id) ev.emplace_back("id", static_cast<std::int64_t>(r.id));
    if (has_scope) ev.emplace_back("s", "t");  // instant scope: thread
    if (has_args) {
      Json args = Json::object();
      args.asObject().reserve(r.args_count);
      for (const Arg& a : this->args(r)) {
        // set(): a repeated key overwrites the earlier value in place.
        args.set(str(a.key), a.isString() ? Json(str(a.str)) : Json(a.num));
      }
      ev.emplace_back("args", std::move(args));
    }
    events.emplace_back(std::move(ev));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", [this] {
    Json d = Json::object();
    d.set("producer", "composim.telemetry.Profiler");
    if (max_records_ > 0) {
      d.set("max_records", static_cast<std::int64_t>(max_records_));
      d.set("dropped_records", static_cast<std::int64_t>(dropped_records_));
    }
    return d;
  }());
  return doc;
}

Status Profiler::writeChromeTrace(const std::string& path, int indent) const {
  std::ofstream out(path);
  if (!out) return Status::internal("cannot open '" + path + "' for writing");
  out << chromeTrace().dump(indent) << '\n';
  if (!out) return Status::internal("short write to '" + path + "'");
  return Status::success();
}

}  // namespace composim::telemetry
