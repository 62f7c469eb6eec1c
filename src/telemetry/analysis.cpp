#include "telemetry/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <sstream>
#include <unordered_map>

namespace composim::telemetry::analysis {
namespace {

// Timestamps of causally-ordered records are exact doubles (events fire at
// the same Simulator::now()), so containment checks only need a guard
// against accumulated float noise, not a real tolerance.
constexpr double kEps = 1e-12;

using Arg = Profiler::Arg;
using Args = std::span<const Arg>;

/// Keys of the strings the analyzer matches on, looked up once so the
/// replay compares ids. A string the trace never interned gets
/// kNoProfileKey, which matches nothing.
struct Keys {
  explicit Keys(const Profiler& prof)
      : corr(prof.find("corr")),
        src(prof.find("src")),
        dst(prof.find("dst")),
        contended_s(prof.find("contended_s")),
        util_pct(prof.find("util_pct")),
        flows(prof.find("flows")),
        bucket(prof.find("bucket")),
        iter(prof.find("iter")),
        algorithm(prof.find("algorithm")),
        fabric(prof.find("fabric")),
        iteration(prof.find("iteration")),
        compute(prof.find("compute")),
        sync(prof.find("sync")),
        stall(prof.find("stall")) {}
  ProfileKey corr, src, dst, contended_s, util_pct, flows, bucket, iter,
      algorithm, fabric, iteration, compute, sync, stall;
};

/// Whether `key` is a real key equal to `want` (kNoProfileKey never
/// matches, not even itself).
bool is(ProfileKey key, ProfileKey want) {
  return key != kNoProfileKey && key == want;
}

double argNum(Args args, ProfileKey key, double def = 0.0) {
  for (const Arg& a : args) {
    if (!a.isString() && is(a.key, key)) return a.num;
  }
  return def;
}

/// The string value of the first string arg named `key`, as its key.
ProfileKey argStr(Args args, ProfileKey key) {
  for (const Arg& a : args) {
    if (a.isString() && is(a.key, key)) return a.str;
  }
  return kNoProfileKey;
}

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// A completed B/E track span, reassembled from the record stream.
struct TrackSpan {
  std::uint32_t tid = 0;
  int depth = 0;  // 1-based nesting depth on its track
  ProfileKey name = kNoProfileKey;
  SimTime start = 0.0;
  SimTime end = 0.0;
  Args begin_args;
};

/// A completed b/e async span (fabric flows, prefetch/h2d pipelines).
struct AsyncSpan {
  ProfileKey category = kNoProfileKey;
  ProfileKey name = kNoProfileKey;
  SimTime start = 0.0;
  SimTime end = 0.0;
  std::uint64_t corr = 0;
  ProfileKey src = kNoProfileKey;
  ProfileKey dst = kNoProfileKey;
  double contended_s = 0.0;
  double actual_s = 0.0;  // end - start
};

/// One replayed change of a counter series.
struct CounterPoint {
  SimTime time = 0.0;
  int series = 0;  // 0 = util_pct, 1 = flows
  double value = 0.0;
};

struct Trace {
  std::vector<TrackSpan> spans;                    // in end-record order
  std::vector<AsyncSpan> async_spans;              // in end-record order
  std::map<ProfileKey, std::vector<CounterPoint>> link_points;  // by name
  SimTime end_time = 0.0;
};

/// Per-track flags for the track-name prefixes the analyzer keys on.
struct TrackKinds {
  std::vector<char> trainer;      // "trainer/..."
  std::vector<char> collectives;  // "collectives/..."
  std::vector<char> link;         // "link:..." counters
};

TrackKinds classifyTracks(const Profiler& prof) {
  TrackKinds k;
  for (const ProfileKey track : prof.tracks()) {
    const std::string& name = prof.str(track);
    k.trainer.push_back(startsWith(name, "trainer/"));
    k.collectives.push_back(startsWith(name, "collectives/"));
    k.link.push_back(startsWith(name, "link:"));
  }
  return k;
}

Trace parseTrace(const Profiler& prof, const Keys& key,
                 const TrackKinds& kinds) {
  Trace tr;
  struct OpenSpan {
    ProfileKey name = kNoProfileKey;
    SimTime start = 0.0;
    Args args;
  };
  std::vector<std::vector<OpenSpan>> open(prof.tracks().size());
  struct OpenAsync {
    ProfileKey category = kNoProfileKey;
    ProfileKey name = kNoProfileKey;
    SimTime start = 0.0;
    Args args;
  };
  std::unordered_map<AsyncSpanId, OpenAsync> open_async;
  SimTime last = 0.0;
  for (const Profiler::Record& r : prof.records()) {
    last = std::max(last, r.time);
    switch (r.phase) {
      case 'B':
        open[r.tid].push_back(OpenSpan{r.name, r.time, prof.args(r)});
        break;
      case 'E': {
        auto& stack = open[r.tid];
        if (stack.empty()) break;  // unbalanced prefix (forked trace tail)
        const OpenSpan& top = stack.back();
        tr.spans.push_back(TrackSpan{r.tid, static_cast<int>(stack.size()),
                                     top.name, top.start, r.time, top.args});
        stack.pop_back();
        break;
      }
      case 'b':
        open_async.emplace(
            r.id, OpenAsync{r.category, r.name, r.time, prof.args(r)});
        break;
      case 'e': {
        auto it = open_async.find(r.id);
        if (it == open_async.end()) break;
        const OpenAsync& b = it->second;
        AsyncSpan s;
        s.category = b.category;
        s.name = b.name;
        s.start = b.start;
        s.end = r.time;
        s.actual_s = std::max(0.0, r.time - b.start);
        s.corr = static_cast<std::uint64_t>(argNum(b.args, key.corr, 0.0));
        s.src = argStr(b.args, key.src);
        s.dst = argStr(b.args, key.dst);
        s.contended_s = argNum(prof.args(r), key.contended_s, 0.0);
        tr.async_spans.push_back(s);
        open_async.erase(it);
        break;
      }
      case 'C':
        if (kinds.link[r.tid] && r.args_count > 0) {
          const Arg& a = prof.args(r).front();
          const int series = is(a.key, key.util_pct) ? 0
                             : is(a.key, key.flows)  ? 1
                                                     : -1;
          if (series >= 0) {
            tr.link_points[r.name].push_back(
                CounterPoint{r.time, series, a.num});
          }
        }
        break;
      default:
        break;  // instants carry no duration
    }
  }
  tr.end_time = prof.endTime() > 0.0 ? prof.endTime() : last;
  return tr;
}

/// Closed intervals that are "active" for one side of the bucket sweep.
struct IntervalSet {
  std::vector<std::pair<SimTime, SimTime>> spans;
};

/// Sweep [t0, t1] against the compute/comm interval sets and fill the
/// partition buckets. comm-only time lands in `comm_only` for the caller
/// to split into exposed vs contention.
void sweepBuckets(SimTime t0, SimTime t1, const IntervalSet& compute,
                  const IntervalSet& comm, Buckets& out, double& comm_only) {
  struct Event {
    SimTime time;
    int d_compute;
    int d_comm;
  };
  std::vector<Event> events;
  auto add = [&](const IntervalSet& set, bool is_compute) {
    for (const auto& [a, b] : set.spans) {
      const SimTime lo = std::max(a, t0);
      const SimTime hi = std::min(b, t1);
      if (hi <= lo) continue;
      events.push_back(Event{lo, is_compute ? 1 : 0, is_compute ? 0 : 1});
      events.push_back(Event{hi, is_compute ? -1 : 0, is_compute ? 0 : -1});
    }
  };
  add(compute, true);
  add(comm, false);
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });
  int c_compute = 0;
  int c_comm = 0;
  SimTime t = t0;
  std::size_t i = 0;
  auto classify = [&](SimTime dt) {
    if (dt <= 0.0) return;
    if (c_compute > 0) {
      out.compute += dt;
      if (c_comm > 0) out.overlapped_comm += dt;
    } else if (c_comm > 0) {
      comm_only += dt;
    } else {
      out.stall += dt;
    }
  };
  while (i < events.size()) {
    const SimTime at = events[i].time;
    classify(at - t);
    t = at;
    for (; i < events.size() && events[i].time == at; ++i) {
      c_compute += events[i].d_compute;
      c_comm += events[i].d_comm;
    }
  }
  classify(t1 - t);
}

std::string fmtSecs(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string fmtPct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%5.1f", v);
  return buf;
}

falcon::Json bucketsJson(const Buckets& b) {
  falcon::Json j = falcon::Json::object();
  j.set("wall_s", b.wall);
  j.set("compute_s", b.compute);
  j.set("overlapped_comm_s", b.overlapped_comm);
  j.set("exposed_comm_s", b.exposed_comm);
  j.set("fabric_contention_s", b.fabric_contention);
  j.set("stall_s", b.stall);
  return j;
}

const std::vector<std::pair<const char*, double Buckets::*>>& bucketFields() {
  static const std::vector<std::pair<const char*, double Buckets::*>> kFields =
      {{"compute", &Buckets::compute},
       {"exposed_comm", &Buckets::exposed_comm},
       {"fabric_contention", &Buckets::fabric_contention},
       {"stall", &Buckets::stall},
       {"overlapped_comm", &Buckets::overlapped_comm}};
  return kFields;
}

}  // namespace

RunAnalysis analyzeProfile(const Profiler& prof, std::string name) {
  RunAnalysis out;
  out.name = std::move(name);
  const Keys key(prof);
  const TrackKinds kinds = classifyTracks(prof);
  const Trace tr = parseTrace(prof, key, kinds);
  // A key's string, or "" for a missing one (an absent arg).
  auto text = [&prof](ProfileKey k) -> const std::string& {
    static const std::string kEmpty;
    return k == kNoProfileKey ? kEmpty : prof.str(k);
  };

  // Pick the trainer track with the most iteration spans (tie: lowest
  // tid) — experiments drive one trainer, but be deterministic if a
  // custom harness runs several.
  std::map<std::uint32_t, std::size_t> iter_count;
  for (const TrackSpan& s : tr.spans) {
    if (is(s.name, key.iteration) && kinds.trainer[s.tid]) {
      ++iter_count[s.tid];
    }
  }
  std::uint32_t iter_tid = 0;
  std::size_t best = 0;
  for (const auto& [tid, n] : iter_count) {
    if (n > best) {
      best = n;
      iter_tid = tid;
    }
  }
  if (best == 0) return out;

  std::vector<const TrackSpan*> iterations;
  for (const TrackSpan& s : tr.spans) {
    if (s.tid == iter_tid && is(s.name, key.iteration)) {
      iterations.push_back(&s);
    }
  }
  std::sort(iterations.begin(), iterations.end(),
            [](const TrackSpan* a, const TrackSpan* b) {
              return a->start < b->start;
            });

  // Activity sets for the bucket sweep: compute = compute-tagged trainer
  // phases (any trainer track); comm = top-level collective op spans plus
  // every fabric flow (the op span also covers per-step software
  // overheads between flow waves, so those bill as comm, not stall).
  IntervalSet compute_set;
  IntervalSet comm_set;
  std::vector<const TrackSpan*> op_spans;
  for (const TrackSpan& s : tr.spans) {
    if (kinds.trainer[s.tid] &&
        is(argStr(s.begin_args, key.bucket), key.compute)) {
      compute_set.spans.emplace_back(s.start, s.end);
    } else if (kinds.collectives[s.tid] && s.depth == 1) {
      comm_set.spans.emplace_back(s.start, s.end);
      op_spans.push_back(&s);
    }
  }
  for (const AsyncSpan& s : tr.async_spans) {
    if (is(s.category, key.fabric)) {
      comm_set.spans.emplace_back(s.start, s.end);
    }
  }

  // Per-span totals, keyed by display name; fabric flows total under
  // "flow:<name>".
  std::map<std::string, double> span_total_s;
  const SimTime window_start = iterations.front()->start;
  const SimTime window_end = iterations.back()->end;

  for (const TrackSpan* it : iterations) {
    IterationAnalysis ia;
    ia.iter = static_cast<std::int64_t>(argNum(it->begin_args, key.iter, 0.0));
    ia.start = it->start;
    ia.end = it->end;
    ia.buckets.wall = std::max(0.0, it->end - it->start);

    double comm_only = 0.0;
    sweepBuckets(it->start, it->end, compute_set, comm_set, ia.buckets,
                 comm_only);
    // Split comm-only time by the contended fraction of the fabric flows
    // that finished inside this iteration: contended_s / actual_s summed
    // over those flows, clamped to [0, 1].
    double contended = 0.0;
    double actual = 0.0;
    for (const AsyncSpan& s : tr.async_spans) {
      if (!is(s.category, key.fabric)) continue;
      if (s.end <= it->start + kEps || s.end > it->end + kEps) continue;
      contended += s.contended_s;
      actual += s.actual_s;
    }
    const double frac =
        actual > 0.0 ? std::min(1.0, std::max(0.0, contended / actual)) : 0.0;
    ia.buckets.fabric_contention = comm_only * frac;
    ia.buckets.exposed_comm = comm_only - ia.buckets.fabric_contention;
    ia.attribution_error_pct =
        ia.buckets.wall > 0.0
            ? 100.0 * std::abs(ia.buckets.partitionSum() - ia.buckets.wall) /
                  ia.buckets.wall
            : 0.0;

    // Critical path: the direct children of the iteration span tile it.
    double covered = 0.0;
    for (const TrackSpan& s : tr.spans) {
      if (s.tid != iter_tid || s.depth != it->depth + 1) continue;
      if (s.start < it->start - kEps || s.end > it->end + kEps) continue;
      const ProfileKey bucket = argStr(s.begin_args, key.bucket);
      PathItem item;
      item.name = text(s.name);
      item.bucket = bucket == kNoProfileKey ? "other" : text(bucket);
      item.start = s.start;
      item.end = s.end;
      if (is(bucket, key.sync)) {
        // Join to the last collective op finishing under this phase, then
        // through its correlation id to the flow that bounded it.
        const TrackSpan* op = nullptr;
        for (const TrackSpan* o : op_spans) {
          if (o->end <= s.start + kEps || o->end > s.end + kEps) continue;
          if (op == nullptr || o->end > op->end) op = o;
        }
        if (op != nullptr) {
          const std::string& algo =
              text(argStr(op->begin_args, key.algorithm));
          item.detail = text(op->name) + (algo.empty() ? "" : "[" + algo + "]");
          const auto corr =
              static_cast<std::uint64_t>(argNum(op->begin_args, key.corr, 0.0));
          if (corr != 0) {
            const AsyncSpan* lastFlow = nullptr;
            for (const AsyncSpan& f : tr.async_spans) {
              if (f.corr != corr) continue;
              if (lastFlow == nullptr || f.end > lastFlow->end) lastFlow = &f;
            }
            if (lastFlow != nullptr) {
              item.detail += " -> last flow " + text(lastFlow->src) + "->" +
                             text(lastFlow->dst);
            }
          }
        }
      } else if (is(bucket, key.stall)) {
        // Name what the stall was waiting on: the last async span (h2d
        // flow, prefetch) resolving inside the phase.
        const AsyncSpan* lastAsync = nullptr;
        for (const AsyncSpan& f : tr.async_spans) {
          if (f.end <= s.start + kEps || f.end > s.end + kEps) continue;
          if (lastAsync == nullptr || f.end > lastAsync->end) lastAsync = &f;
        }
        if (lastAsync != nullptr) {
          item.detail = "waiting on " + text(lastAsync->name);
          if (!text(lastAsync->src).empty()) {
            item.detail += " " + text(lastAsync->src) + "->" +
                           text(lastAsync->dst);
          }
        }
      }
      covered += item.duration();
      span_total_s[item.name] += item.duration();
      ia.critical_path.push_back(std::move(item));
    }
    std::sort(ia.critical_path.begin(), ia.critical_path.end(),
              [](const PathItem& a, const PathItem& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    ia.coverage_pct =
        ia.buckets.wall > 0.0 ? 100.0 * covered / ia.buckets.wall : 100.0;

    out.total.wall += ia.buckets.wall;
    out.total.compute += ia.buckets.compute;
    out.total.overlapped_comm += ia.buckets.overlapped_comm;
    out.total.exposed_comm += ia.buckets.exposed_comm;
    out.total.fabric_contention += ia.buckets.fabric_contention;
    out.total.stall += ia.buckets.stall;
    out.coverage_pct += ia.coverage_pct;
    out.max_attribution_error_pct =
        std::max(out.max_attribution_error_pct, ia.attribution_error_pct);
    out.per_iteration.push_back(std::move(ia));
  }
  out.iterations = out.per_iteration.size();
  const auto n = static_cast<double>(out.iterations);
  out.coverage_pct /= n;
  out.mean.wall = out.total.wall / n;
  out.mean.compute = out.total.compute / n;
  out.mean.overlapped_comm = out.total.overlapped_comm / n;
  out.mean.exposed_comm = out.total.exposed_comm / n;
  out.mean.fabric_contention = out.total.fabric_contention / n;
  out.mean.stall = out.total.stall / n;

  // Span-level means also cover the collective ops and fabric flows that
  // ran during the analyzed window, so run-diff can localize a regression
  // below the trainer-phase level.
  for (const TrackSpan* o : op_spans) {
    if (o->end > window_start + kEps && o->end <= window_end + kEps) {
      span_total_s[text(o->name)] += std::max(0.0, o->end - o->start);
    }
  }
  for (const AsyncSpan& s : tr.async_spans) {
    if (is(s.category, key.fabric) && s.end > window_start + kEps &&
        s.end <= window_end + kEps) {
      span_total_s["flow:" + text(s.name)] += s.actual_s;
    }
  }
  for (const auto& [span, total] : span_total_s) {
    out.span_mean_s[span] = total / n;
  }

  // Per-link contention: replay each link's util_pct/flows step series
  // and integrate utilization while >= 2 flows shared the link.
  for (const auto& [link, points] : tr.link_points) {
    LinkContention lc;
    lc.link = text(link);
    double util = 0.0;
    double flows = 0.0;
    SimTime t = points.empty() ? tr.end_time : points.front().time;
    auto integrate = [&](SimTime until) {
      const SimTime dt = until - t;
      if (dt <= 0.0) return;
      lc.busy_s += util / 100.0 * dt;
      if (flows >= 2.0) lc.contention_s += util / 100.0 * dt;
      t = until;
    };
    for (const CounterPoint& p : points) {
      integrate(p.time);
      (p.series == 0 ? util : flows) = p.value;
    }
    integrate(tr.end_time);
    lc.util_mean_pct = prof.counterMean(lc.link, "util_pct");
    if (lc.busy_s > 0.0) out.links.push_back(std::move(lc));
  }
  std::sort(out.links.begin(), out.links.end(),
            [](const LinkContention& a, const LinkContention& b) {
              if (a.contention_s != b.contention_s) {
                return a.contention_s > b.contention_s;
              }
              if (a.busy_s != b.busy_s) return a.busy_s > b.busy_s;
              return a.link < b.link;
            });
  return out;
}

falcon::Json toJson(const RunAnalysis& a) {
  falcon::Json doc = falcon::Json::object();
  doc.set("schema", "composim.analysis/1");
  doc.set("name", a.name);
  doc.set("iterations", static_cast<std::int64_t>(a.iterations));
  doc.set("mean", bucketsJson(a.mean));
  doc.set("total", bucketsJson(a.total));
  doc.set("coverage_pct", a.coverage_pct);
  doc.set("max_attribution_error_pct", a.max_attribution_error_pct);
  falcon::Json links = falcon::Json::array();
  for (const LinkContention& lc : a.links) {
    falcon::Json j = falcon::Json::object();
    j.set("link", lc.link);
    j.set("contention_s", lc.contention_s);
    j.set("busy_s", lc.busy_s);
    j.set("util_mean_pct", lc.util_mean_pct);
    links.push(std::move(j));
  }
  doc.set("links", std::move(links));
  falcon::Json spans = falcon::Json::object();
  for (const auto& [span, mean] : a.span_mean_s) spans.set(span, mean);
  doc.set("span_mean_s", std::move(spans));
  falcon::Json iters = falcon::Json::array();
  for (const IterationAnalysis& ia : a.per_iteration) {
    falcon::Json j = falcon::Json::object();
    j.set("iter", ia.iter);
    j.set("start_s", ia.start);
    j.set("buckets", bucketsJson(ia.buckets));
    j.set("coverage_pct", ia.coverage_pct);
    j.set("attribution_error_pct", ia.attribution_error_pct);
    falcon::Json path = falcon::Json::array();
    for (const PathItem& p : ia.critical_path) {
      falcon::Json pj = falcon::Json::object();
      pj.set("name", p.name);
      pj.set("bucket", p.bucket);
      pj.set("start_s", p.start);
      pj.set("end_s", p.end);
      if (!p.detail.empty()) pj.set("detail", p.detail);
      path.push(std::move(pj));
    }
    j.set("critical_path", std::move(path));
    iters.push(std::move(j));
  }
  doc.set("per_iteration", std::move(iters));
  return doc;
}

std::string report(const RunAnalysis& a) {
  std::ostringstream os;
  os << "bottleneck analysis: " << (a.name.empty() ? "(unnamed)" : a.name)
     << "\n";
  if (a.iterations == 0) {
    os << "  no iteration spans in trace (was the run traced?)\n";
    return os.str();
  }
  os << "  iterations analyzed : " << a.iterations << "\n";
  os << "  mean iteration wall : " << fmtSecs(a.mean.wall) << " s\n";
  os << "  attribution (mean s/iter, % of wall):\n";
  auto row = [&](const char* label, double v, bool partition) {
    const double pct = a.mean.wall > 0.0 ? 100.0 * v / a.mean.wall : 0.0;
    os << "    " << label << ": " << fmtSecs(v) << "  (" << fmtPct(pct)
       << "%" << (partition ? "" : ", hidden under compute") << ")\n";
  };
  row("compute           ", a.mean.compute, true);
  row("exposed comm      ", a.mean.exposed_comm, true);
  row("fabric contention ", a.mean.fabric_contention, true);
  row("stall             ", a.mean.stall, true);
  row("overlapped comm   ", a.mean.overlapped_comm, false);
  os << "  attribution residual: max " << fmtSecs(a.max_attribution_error_pct)
     << "% of wall (tolerance " << kAttributionTolerancePct << "%)\n";
  os << "  critical-path coverage: " << fmtPct(a.coverage_pct) << "%\n";
  const IterationAnalysis& last = a.per_iteration.back();
  os << "  critical path (iteration " << last.iter << "):\n";
  for (const PathItem& p : last.critical_path) {
    os << "    " << p.name << "  " << fmtSecs(p.duration()) << " s  ["
       << p.bucket << "]";
    if (!p.detail.empty()) os << "  " << p.detail;
    os << "\n";
  }
  if (!a.links.empty()) {
    os << "  top contended links:\n";
    const std::size_t n = std::min<std::size_t>(5, a.links.size());
    for (std::size_t i = 0; i < n; ++i) {
      const LinkContention& lc = a.links[i];
      os << "    " << lc.link << "  contention " << fmtSecs(lc.contention_s)
         << " s  busy " << fmtSecs(lc.busy_s) << " s  util "
         << fmtPct(lc.util_mean_pct) << "%\n";
    }
  }
  return os.str();
}

RunDiff diffRuns(const RunAnalysis& base, const RunAnalysis& other) {
  RunDiff d;
  d.base = base.name;
  d.other = other.name;
  d.base_wall_s = base.mean.wall;
  d.other_wall_s = other.mean.wall;
  d.wall_delta_s = other.mean.wall - base.mean.wall;
  for (const auto& [label, field] : bucketFields()) {
    d.bucket_deltas.emplace_back(label, other.mean.*field - base.mean.*field);
  }
  std::stable_sort(d.bucket_deltas.begin(), d.bucket_deltas.end(),
                   [](const auto& a, const auto& b) {
                     return std::abs(a.second) > std::abs(b.second);
                   });
  d.dominant_bucket = "none";
  for (const auto& [bucket, delta] : d.bucket_deltas) {
    // overlapped_comm is informational (not part of the wall partition).
    if (bucket == std::string("overlapped_comm")) continue;
    if (std::abs(delta) > 1e-12) d.dominant_bucket = bucket;
    break;
  }
  std::map<std::string, double> deltas;
  for (const auto& [span, mean] : base.span_mean_s) deltas[span] -= mean;
  for (const auto& [span, mean] : other.span_mean_s) deltas[span] += mean;
  for (const auto& [span, delta] : deltas) {
    if (std::abs(delta) > 1e-15) d.span_deltas.emplace_back(span, delta);
  }
  std::stable_sort(d.span_deltas.begin(), d.span_deltas.end(),
                   [](const auto& a, const auto& b) {
                     if (std::abs(a.second) != std::abs(b.second)) {
                       return std::abs(a.second) > std::abs(b.second);
                     }
                     return a.first < b.first;
                   });
  return d;
}

falcon::Json toJson(const RunDiff& d) {
  falcon::Json doc = falcon::Json::object();
  doc.set("schema", "composim.analysis.diff/1");
  doc.set("base", d.base);
  doc.set("other", d.other);
  doc.set("base_wall_s", d.base_wall_s);
  doc.set("other_wall_s", d.other_wall_s);
  doc.set("wall_delta_s", d.wall_delta_s);
  doc.set("dominant_bucket", d.dominant_bucket);
  falcon::Json buckets = falcon::Json::array();
  for (const auto& [bucket, delta] : d.bucket_deltas) {
    falcon::Json j = falcon::Json::object();
    j.set("bucket", bucket);
    j.set("delta_s", delta);
    buckets.push(std::move(j));
  }
  doc.set("bucket_deltas", std::move(buckets));
  falcon::Json spans = falcon::Json::array();
  for (const auto& [span, delta] : d.span_deltas) {
    falcon::Json j = falcon::Json::object();
    j.set("span", span);
    j.set("delta_s", delta);
    spans.push(std::move(j));
  }
  doc.set("span_deltas", std::move(spans));
  return doc;
}

std::string report(const RunDiff& d) {
  std::ostringstream os;
  os << "run diff: " << d.other << " vs " << d.base << "\n";
  os << "  mean iteration wall: " << fmtSecs(d.base_wall_s) << " s -> "
     << fmtSecs(d.other_wall_s) << " s (delta "
     << (d.wall_delta_s >= 0 ? "+" : "") << fmtSecs(d.wall_delta_s) << " s";
  if (d.base_wall_s > 0.0) {
    os << ", " << fmtPct(100.0 * d.wall_delta_s / d.base_wall_s) << "%";
  }
  os << ")\n";
  os << "  dominant bucket: " << d.dominant_bucket << "\n";
  os << "  delta by bucket (mean s/iter):\n";
  for (const auto& [bucket, delta] : d.bucket_deltas) {
    os << "    " << bucket << ": " << (delta >= 0 ? "+" : "")
       << fmtSecs(delta) << "\n";
  }
  if (!d.span_deltas.empty()) {
    os << "  largest span-level changes:\n";
    const std::size_t n = std::min<std::size_t>(8, d.span_deltas.size());
    for (std::size_t i = 0; i < n; ++i) {
      os << "    " << d.span_deltas[i].first << ": "
         << (d.span_deltas[i].second >= 0 ? "+" : "")
         << fmtSecs(d.span_deltas[i].second) << "\n";
    }
  }
  return os.str();
}

}  // namespace composim::telemetry::analysis
