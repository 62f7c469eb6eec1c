#include "telemetry/profiler.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <numeric>
#include <utility>

#include "falcon/json.hpp"

namespace composim::telemetry {

namespace {

constexpr int kTracePid = 1;
constexpr std::uint32_t kNoTrack = UINT32_MAX;

// Trace event field keys, already quoted for JsonWriter::quotedKey.
constexpr std::string_view kPh = R"("ph")";
constexpr std::string_view kTs = R"("ts")";
constexpr std::string_view kPid = R"("pid")";
constexpr std::string_view kTid = R"("tid")";
constexpr std::string_view kName = R"("name")";
constexpr std::string_view kCat = R"("cat")";
constexpr std::string_view kId = R"("id")";
constexpr std::string_view kScope = R"("s")";
constexpr std::string_view kArgs = R"("args")";

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
  }
  return tid;
}

void Profiler::push(char phase, std::uint32_t tid, ProfileKey category,
                    ProfileKey name, AsyncSpanId id, const ProfileArgs& args) {
  records_.push_back(Record{sim_->now(), id, tid, category, name,
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
  push('B', trackId(track), category, name, kInvalidAsyncSpan, args);
}

void Profiler::endSpan(ProfileKey track, const ProfileArgs& args) {
  if (!recording()) return;
  push('E', trackId(track), kNoProfileKey, kNoProfileKey, kInvalidAsyncSpan,
       args);
}

AsyncSpanId Profiler::beginAsyncSpan(ProfileKey category, ProfileKey name,
                                     const ProfileArgs& args) {
  if (!recording()) return kInvalidAsyncSpan;
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
  CounterState& s = counters_[counter];
  if (s.set && s.value == value) return;  // no change: skip the duplicate
  s.set = true;
  s.value = value;
  records_.push_back(Record{sim_->now(), kInvalidAsyncSpan, trackId(s.counter),
                            counter_category_, s.counter,
                            static_cast<std::uint32_t>(args_.size()), 1, 'C'});
  args_.push_back(Arg{s.series, kNoProfileKey, value});
}

void Profiler::instant(ProfileKey category, ProfileKey name,
                       const ProfileArgs& args) {
  if (!recording()) return;
  push('i', trackId(category), category, name, kInvalidAsyncSpan, args);
}

Profiler::State Profiler::state() const {
  State st;
  st.strings.reserve(strings_.size());
  for (const std::string* s : strings_) st.strings.push_back(*s);
  st.records = records_;
  st.args = args_;
  st.tracks = tracks_;
  st.open_async = open_async_;
  st.counters = counters_;
  st.next_async = next_async_;
  st.next_corr = next_corr_;
  return st;
}

void Profiler::setState(const State& st) {
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
  sim_ = nullptr;
}

std::vector<std::size_t> Profiler::exportOrder() const {
  std::vector<std::size_t> order(records_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Recording order is already time-sorted, so the (time, tid, seq) order
  // only reorders each run of equal timestamps, by tid; the stable sort
  // keeps recording sequence within a track.
  const auto byTid = [this](std::size_t a, std::size_t b) {
    return records_[a].tid < records_[b].tid;
  };
  for (std::size_t begin = 0; begin < order.size();) {
    std::size_t end = begin + 1;
    while (end < order.size() && records_[end].time == records_[begin].time) {
      ++end;
    }
    if (end - begin > 1) {
      std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                       order.begin() + static_cast<std::ptrdiff_t>(end), byTid);
    }
    begin = end;
  }
  return order;
}

std::string ChromeTrace::dump(int indent) const {
  const Profiler& p = profiler_;
  std::string out;
  // Traces run 150 bytes a record compact and 250 indented; reserving a
  // little more saves the regrowth copies (untouched capacity is never
  // paged in).
  out.reserve(p.records().size() * (indent < 0 ? 192 : 320) + 4096);
  falcon::JsonWriter w(out, indent);
  // One member under an already-quoted key.
  auto field = [&w](std::string_view key, auto value) {
    w.quotedKey(key);
    w.value(value);
  };
  auto metadata = [&](std::int64_t tid, const char* name,
                      std::string_view value) {
    w.beginObject();
    field(kPh, "M");
    field(kPid, kTracePid);
    field(kTid, tid);
    field(kName, name);
    w.quotedKey(kArgs);
    w.beginObject();
    field(kName, value);
    w.endObject();
    w.endObject();
  };

  w.beginObject();
  w.key("traceEvents");
  w.beginArray();
  // Process + per-track thread names so Perfetto labels the rows.
  metadata(0, "process_name", "composim");
  for (std::size_t tid = 0; tid < p.tracks().size(); ++tid) {
    metadata(static_cast<std::int64_t>(tid), "thread_name",
             p.str(p.tracks()[tid]));
  }
  auto nonEmpty = [&p](ProfileKey key) {
    return key != kNoProfileKey && !p.str(key).empty();
  };
  for (const std::size_t idx : p.exportOrder()) {
    const Profiler::Record& r = p.records()[idx];
    w.beginObject();
    field(kPh, std::string_view(&r.phase, 1));
    field(kTs, r.time * 1e6);  // trace_event timestamps are us
    field(kPid, kTracePid);
    field(kTid, static_cast<std::int64_t>(r.tid));
    if (nonEmpty(r.name)) field(kName, std::string_view(p.str(r.name)));
    if (nonEmpty(r.category)) field(kCat, std::string_view(p.str(r.category)));
    if (r.id != kInvalidAsyncSpan) {
      field(kId, static_cast<std::int64_t>(r.id));
    }
    if (r.phase == 'i') field(kScope, "t");  // instant scope: thread
    const std::span<const Profiler::Arg> args = p.args(r);
    if (!args.empty()) {
      w.quotedKey(kArgs);
      w.beginObject();
      for (std::size_t i = 0; i < args.size(); ++i) {
        // A repeated key keeps its first position and takes its last
        // value (falcon::Json::set's overwrite-in-place).
        const ProfileKey key = args[i].key;
        const auto same_key = [key](const Profiler::Arg& a) {
          return a.key == key;
        };
        if (std::any_of(args.begin(), args.begin() + i, same_key)) continue;
        const Profiler::Arg& last =
            *std::find_if(args.rbegin(), args.rend(), same_key);
        w.key(p.str(key));
        if (last.isString()) {
          w.value(std::string_view(p.str(last.str)));
        } else {
          w.value(last.num);
        }
      }
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("otherData");
  w.beginObject();
  w.key("producer");
  w.value("composim.telemetry.Profiler");
  w.endObject();
  w.endObject();
  return out;
}

Status Profiler::writeChromeTrace(const std::string& path, int indent) const {
  std::ofstream out(path);
  if (!out) return Status::internal("cannot open '" + path + "' for writing");
  out << chromeTrace().dump(indent) << '\n';
  if (!out) return Status::internal("short write to '" + path + "'");
  return Status::success();
}

}  // namespace composim::telemetry
