// Validates composim bench exports, one or more files per call, each
// checked by the validator its content selects:
//
//  * "composim.bench.simcore/1" schema (BENCH_simcore.json, written by
//    micro_simcore and amended by solver_scaling): a non-empty benchmark
//    array with sane per-run fields, the recompute/event-queue series the
//    perf gates track, and a solver_scaling section with a strictly
//    growing chassis sweep whose routing/batching invariants held
//    (positive route rates, batched arrivals bit-identical and no slower
//    than serial, steady-state routing allocation-free, a warmed delivery
//    wave within bench::kWaveAllocBudget allocations whatever its size, and
//    a warmed all-reduce within bench::kAllReduceAllocBudget at every rank
//    count measured).
//  * "composim.bench.analysis/1" schema (BENCH_analysis.json, written by
//    bottleneck_attribution): per-run attribution buckets nonnegative and
//    summing to iteration wall time within 0.1%, critical-path coverage
//    >= 95%, the jobs-1-vs-4 determinism flag, and a run diff with a
//    non-zero wall delta whose dominant bucket is exposed_comm or
//    fabric_contention.
//  * A "traceEvents" key (the span profiler's Chrome trace_event export,
//    written by trace_capture): every event needs the ph/ts/pid/tid
//    fields its phase requires, duration (B/E) events must balance per
//    track, async (b/e) events must carry correlation ids, timestamps
//    must be non-negative, and the span/counter names the trainer +
//    fabric instrumentation is expected to emit must all be present.
//  * A ".prom" file (metrics_capture's Prometheus text exposition):
//    `# HELP`/`# TYPE` headers and samples interleave correctly, every
//    sample belongs to a declared family of a known type, label strings
//    are sorted by key with no duplicates, histogram families expose
//    `_bucket` samples whose cumulative counts are monotone in `le` and
//    end at an `le="+Inf"` bucket equal to `_count`, alongside a `_sum`,
//    and counter samples are non-negative.
//  * A ".jsonl" file (metrics_capture's JSONL dump): one
//    {"metric", "t", "value"} object per line with timestamps
//    non-decreasing per metric.
//
// Exit code 0 when every file passes, 1 with a diagnostic on stderr
// otherwise. Every capture-then-validate bench ctest runs it (see
// run_and_validate.cmake).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "falcon/json.hpp"

using composim::falcon::Json;
using composim::falcon::JsonError;

namespace {

int fail(const std::string& why) {
  std::fprintf(stderr, "bench_json_validate: %s\n", why.c_str());
  return 1;
}

int validateSimcore(const Json& doc) {
  const Json* benches = doc.find("benchmarks");
  if (benches == nullptr || !benches->isArray()) {
    return fail("missing benchmarks array");
  }
  if (benches->asArray().empty()) return fail("benchmarks array is empty");

  std::set<std::string> names;
  for (const Json& entry : benches->asArray()) {
    if (!entry.isObject()) return fail("benchmark entry is not an object");
    const Json* name = entry.find("name");
    if (name == nullptr || !name->isString() || name->asString().empty()) {
      return fail("benchmark entry without a name");
    }
    const Json* rt = entry.find("real_time_ns");
    if (rt == nullptr || !rt->isNumber() || rt->asDouble() <= 0.0) {
      return fail(name->asString() + ": real_time_ns missing or non-positive");
    }
    const Json* iters = entry.find("iterations");
    if (iters == nullptr || !iters->isNumber() || iters->asDouble() <= 0.0) {
      return fail(name->asString() + ": iterations missing or non-positive");
    }
    const Json* ips = entry.find("items_per_second");
    if (ips == nullptr || !ips->isNumber() || ips->asDouble() < 0.0) {
      return fail(name->asString() + ": items_per_second missing or negative");
    }
    names.insert(name->asString());
  }

  for (const char* required : {"BM_MaxMinRecompute/256", "BM_MaxMinRecompute/1024",
                               "BM_EventQueueScheduleRun/1000"}) {
    if (names.count(required) == 0) {
      return fail(std::string("required series absent: ") + required);
    }
  }

  const Json* scaling = doc.find("solver_scaling");
  if (scaling == nullptr || !scaling->isObject()) {
    return fail("missing solver_scaling section");
  }
  const Json* allocs = scaling->find("route_steady_allocs");
  if (allocs == nullptr || !allocs->isNumber() || allocs->asDouble() != 0.0) {
    return fail("route_steady_allocs missing or non-zero");
  }
  const Json* wave_flows = scaling->find("wave_flows");
  const Json* wave_allocs = scaling->find("wave_allocs");
  if (wave_flows == nullptr || !wave_flows->isNumber() ||
      wave_flows->asDouble() <= 0.0) {
    return fail("wave_flows missing or non-positive");
  }
  if (wave_allocs == nullptr || !wave_allocs->isNumber() ||
      wave_allocs->asDouble() >
          static_cast<double>(composim::bench::kWaveAllocBudget)) {
    return fail("wave_allocs missing or above the budget of " +
                std::to_string(composim::bench::kWaveAllocBudget));
  }
  const Json* allreduce = scaling->find("allreduce_allocs");
  if (allreduce == nullptr || !allreduce->isArray() || allreduce->asArray().empty()) {
    return fail("allreduce_allocs missing or empty");
  }
  for (const Json& a : allreduce->asArray()) {
    const Json* ranks = a.isObject() ? a.find("ranks") : nullptr;
    const Json* count = a.isObject() ? a.find("allocs") : nullptr;
    if (ranks == nullptr || !ranks->isNumber() || count == nullptr ||
        !count->isNumber() ||
        count->asDouble() >
            static_cast<double>(composim::bench::kAllReduceAllocBudget)) {
      return fail("allreduce_allocs entry malformed or above the budget of " +
                  std::to_string(composim::bench::kAllReduceAllocBudget));
    }
  }
  const Json* scenarios = scaling->find("scenarios");
  if (scenarios == nullptr || !scenarios->isArray() ||
      scenarios->asArray().empty()) {
    return fail("solver_scaling.scenarios missing or empty");
  }
  double prev_chassis = 0.0, prev_gpus = 0.0;
  for (const Json& s : scenarios->asArray()) {
    if (!s.isObject()) return fail("solver_scaling scenario is not an object");
    const Json* chassis = s.find("chassis");
    const Json* gpus = s.find("gpus");
    if (chassis == nullptr || !chassis->isNumber() ||
        chassis->asDouble() <= prev_chassis) {
      return fail("scenario chassis counts must be strictly increasing");
    }
    if (gpus == nullptr || !gpus->isNumber() || gpus->asDouble() <= prev_gpus) {
      return fail("scenario gpu counts must be strictly increasing");
    }
    prev_chassis = chassis->asDouble();
    prev_gpus = gpus->asDouble();
    const std::string at = "chassis=" + std::to_string(
        static_cast<long long>(chassis->asDouble()));
    const Json* rate = s.find("routes_per_sec_flat");
    if (rate == nullptr || !rate->isNumber() || rate->asDouble() <= 0.0) {
      return fail(at + ": routes_per_sec_flat missing or non-positive");
    }
    const Json* speedup = s.find("batched_speedup");
    if (speedup == nullptr || !speedup->isNumber() || speedup->asDouble() < 1.0) {
      return fail(at + ": batched_speedup missing or below 1x");
    }
    const Json* ident = s.find("batched_bit_identical");
    if (ident == nullptr || !ident->isBool() || !ident->asBool()) {
      return fail(at + ": batched_bit_identical missing or false");
    }
  }
  return 0;
}

int validateAnalysis(const Json& doc) {
  constexpr double kTolerancePct = 0.1;
  constexpr double kMinCoveragePct = 95.0;
  const Json* runs = doc.find("runs");
  if (runs == nullptr || !runs->isArray() || runs->asArray().empty()) {
    return fail("missing or empty runs array");
  }
  for (const Json& run : runs->asArray()) {
    if (!run.isObject()) return fail("run entry is not an object");
    const Json* name = run.find("name");
    if (name == nullptr || !name->isString() || name->asString().empty()) {
      return fail("run entry without a name");
    }
    const std::string& at = name->asString();
    const Json* iters = run.find("iterations");
    if (iters == nullptr || !iters->isNumber() || iters->asDouble() <= 0.0) {
      return fail(at + ": iterations missing or non-positive");
    }
    const Json* wall = run.find("wall_mean_s");
    if (wall == nullptr || !wall->isNumber() || wall->asDouble() <= 0.0) {
      return fail(at + ": wall_mean_s missing or non-positive");
    }
    double partition = 0.0;
    for (const char* bucket :
         {"compute_mean_s", "exposed_comm_mean_s", "fabric_contention_mean_s",
          "stall_mean_s", "overlapped_comm_mean_s"}) {
      const Json* v = run.find(bucket);
      if (v == nullptr || !v->isNumber() || v->asDouble() < 0.0) {
        return fail(at + ": " + bucket + " missing or negative");
      }
      // overlapped comm re-counts compute time; it is not in the partition.
      if (std::string(bucket) != "overlapped_comm_mean_s") {
        partition += v->asDouble();
      }
    }
    const double err_pct =
        100.0 * (partition > wall->asDouble() ? partition - wall->asDouble()
                                              : wall->asDouble() - partition) /
        wall->asDouble();
    if (err_pct > kTolerancePct) {
      return fail(at + ": buckets sum off wall time by " +
                  std::to_string(err_pct) + "% (tolerance " +
                  std::to_string(kTolerancePct) + "%)");
    }
    const Json* cov = run.find("coverage_pct");
    if (cov == nullptr || !cov->isNumber() ||
        cov->asDouble() < kMinCoveragePct) {
      return fail(at + ": coverage_pct missing or below 95%");
    }
    const Json* err = run.find("max_attribution_error_pct");
    if (err == nullptr || !err->isNumber() || err->asDouble() > kTolerancePct) {
      return fail(at + ": max_attribution_error_pct missing or over tolerance");
    }
  }
  const Json* det = doc.find("determinism");
  if (det == nullptr || !det->isObject()) {
    return fail("missing determinism section");
  }
  const Json* ident = det->find("jobs1_vs_jobs4_identical");
  if (ident == nullptr || !ident->isBool() || !ident->asBool()) {
    return fail("jobs1_vs_jobs4_identical missing or false");
  }
  const Json* diff = doc.find("run_diff");
  if (diff == nullptr || !diff->isObject()) {
    return fail("missing run_diff section");
  }
  const Json* delta = diff->find("wall_delta_s");
  if (delta == nullptr || !delta->isNumber() || delta->asDouble() == 0.0) {
    return fail("run_diff.wall_delta_s missing or zero");
  }
  const Json* dominant = diff->find("dominant_bucket");
  if (dominant == nullptr || !dominant->isString() ||
      (dominant->asString() != "exposed_comm" &&
       dominant->asString() != "fabric_contention")) {
    return fail("run_diff.dominant_bucket missing or not "
                "exposed_comm/fabric_contention");
  }
  for (const char* flag : {"wall_delta_nonzero", "comm_dominant"}) {
    const Json* v = diff->find(flag);
    if (v == nullptr || !v->isBool() || !v->asBool()) {
      return fail(std::string("run_diff.") + flag + " missing or false");
    }
  }
  return 0;
}

int validateTrace(const Json& doc) {
  const Json* unit = doc.find("displayTimeUnit");
  if (unit == nullptr || !unit->isString() || unit->asString() != "ms") {
    return fail("missing or unexpected displayTimeUnit");
  }
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->isArray()) {
    return fail("missing traceEvents array");
  }
  if (events->asArray().empty()) return fail("traceEvents array is empty");

  std::map<long long, int> depth_by_tid;  // open B spans per track
  std::set<std::string> span_names;
  std::set<std::string> counter_names;
  std::size_t timed = 0;
  for (const Json& ev : events->asArray()) {
    if (!ev.isObject()) return fail("event is not an object");
    const Json* ph = ev.find("ph");
    if (ph == nullptr || !ph->isString() || ph->asString().size() != 1) {
      return fail("event without a one-character ph");
    }
    const char phase = ph->asString()[0];
    const Json* pid = ev.find("pid");
    const Json* tid = ev.find("tid");
    if (pid == nullptr || !pid->isNumber() || tid == nullptr ||
        !tid->isNumber()) {
      return fail("event without numeric pid/tid");
    }
    if (phase == 'M') continue;  // metadata carries no timestamp
    const Json* ts = ev.find("ts");
    if (ts == nullptr || !ts->isNumber() || ts->asDouble() < 0.0) {
      return fail("timed event without a non-negative ts");
    }
    ++timed;
    const Json* name = ev.find("name");
    const bool named = name != nullptr && name->isString();
    switch (phase) {
      case 'B':
        if (!named) return fail("B event without a name");
        span_names.insert(name->asString());
        ++depth_by_tid[tid->asInt()];
        break;
      case 'E':
        if (--depth_by_tid[tid->asInt()] < 0) {
          return fail("E event without a matching B on its track");
        }
        break;
      case 'b':
      case 'e': {
        if (!named) return fail("async event without a name");
        if (phase == 'b') span_names.insert(name->asString());
        const Json* id = ev.find("id");
        if (id == nullptr || !id->isNumber()) {
          return fail("async event without a correlation id");
        }
        break;
      }
      case 'C':
        if (!named) return fail("counter event without a name");
        counter_names.insert(name->asString());
        break;
      case 'i':
        break;
      default:
        return fail(std::string("unexpected phase '") + phase + "'");
    }
  }
  if (timed == 0) return fail("no timed events");
  for (const auto& [tid, depth] : depth_by_tid) {
    if (depth != 0) {
      return fail("track " + std::to_string(tid) + " has " +
                  std::to_string(depth) + " unclosed B events");
    }
  }

  for (const char* required :
       {"iteration", "forward", "backward", "gradient-sync", "optimizer",
        "step-overhead", "checkpoint", "prefetch", "h2d", "allReduce"}) {
    if (span_names.count(required) == 0) {
      return fail(std::string("required span absent: ") + required);
    }
  }
  bool has_link_counter = false;
  for (const std::string& name : counter_names) {
    if (name.rfind("link:", 0) == 0) has_link_counter = true;
  }
  if (!has_link_counter) return fail("no link:* counter events");
  return 0;
}

bool parseDouble(const std::string& text, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// Splits `name{k="v",...}` into the bare name and the label pairs;
/// returns false on malformed label syntax.
bool splitLabels(const std::string& series, std::string* name,
                 std::vector<std::pair<std::string, std::string>>* labels) {
  const std::size_t brace = series.find('{');
  if (brace == std::string::npos) {
    *name = series;
    return true;
  }
  if (series.back() != '}') return false;
  *name = series.substr(0, brace);
  std::string body = series.substr(brace + 1, series.size() - brace - 2);
  while (!body.empty()) {
    const std::size_t eq = body.find("=\"");
    if (eq == std::string::npos) return false;
    const std::string key = body.substr(0, eq);
    // Find the closing quote, honouring backslash escapes.
    std::size_t end = eq + 2;
    while (end < body.size() && body[end] != '"') {
      end += body[end] == '\\' ? 2 : 1;
    }
    if (end >= body.size()) return false;
    labels->emplace_back(key, body.substr(eq + 2, end - eq - 2));
    body = body.substr(end + 1);
    if (!body.empty()) {
      if (body[0] != ',') return false;
      body = body.substr(1);
    }
  }
  return true;
}

struct HistogramSeries {
  // le -> cumulative count, in sample order (exposition order == le order).
  std::vector<std::pair<double, double>> buckets;
  bool has_sum = false;
  double count = -1.0;
};

int validatePrometheus(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);

  std::map<std::string, std::string> family_type;  // family -> type
  std::map<std::string, HistogramSeries> histograms;  // base + labels (no le)
  std::size_t samples = 0;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = path + ":" + std::to_string(lineno);
    if (line.empty()) return fail(where + ": blank line in exposition");
    if (line[0] == '#') {
      std::istringstream hdr(line);
      std::string hash, kind, family;
      hdr >> hash >> kind >> family;
      if (kind == "HELP") continue;
      if (kind != "TYPE") return fail(where + ": unknown comment " + line);
      std::string type;
      hdr >> type;
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return fail(where + ": unknown metric type " + type);
      }
      if (family_type.count(family) != 0) {
        return fail(where + ": duplicate TYPE for " + family);
      }
      family_type[family] = type;
      continue;
    }

    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) return fail(where + ": malformed sample");
    const std::string series = line.substr(0, space);
    double value = 0.0;
    if (!parseDouble(line.substr(space + 1), &value)) {
      return fail(where + ": unparsable sample value");
    }
    ++samples;

    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    if (!splitLabels(series, &name, &labels)) {
      return fail(where + ": malformed label set");
    }
    // User labels are strictly sorted by key; the synthetic `le` bucket
    // label is appended last, outside the sort (Prometheus convention).
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i].first == "le" && i + 1 != labels.size()) {
        return fail(where + ": le is not the last label");
      }
      if (i > 0 && labels[i].first != "le" &&
          !(labels[i - 1].first < labels[i].first)) {
        return fail(where + ": labels not strictly sorted by key");
      }
    }

    // Histogram samples expose the family under _bucket/_sum/_count; map
    // the sample back to its declared family.
    std::string family = name;
    std::string suffix;
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      const std::string tail = s;
      if (name.size() > tail.size() &&
          name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
        const std::string base = name.substr(0, name.size() - tail.size());
        if (family_type.count(base) != 0 &&
            family_type[base] == "histogram") {
          family = base;
          suffix = tail;
          break;
        }
      }
    }
    if (family_type.count(family) == 0) {
      return fail(where + ": sample before any TYPE line for " + family);
    }
    const std::string& type = family_type[family];
    if (type == "counter" && value < 0.0) {
      return fail(where + ": negative counter sample");
    }
    if (type == "histogram") {
      if (suffix.empty()) {
        return fail(where + ": bare sample for histogram family " + family);
      }
      // Key the sub-series by family + labels minus `le`.
      std::string le;
      std::string key = family;
      for (const auto& [k, v] : labels) {
        if (k == "le") {
          le = v;
        } else {
          key += "," + k + "=" + v;
        }
      }
      HistogramSeries& h = histograms[key];
      if (suffix == "_bucket") {
        if (le.empty()) return fail(where + ": _bucket sample without le");
        double bound = 0.0;
        if (le == "+Inf") {
          bound = std::numeric_limits<double>::infinity();
        } else if (!parseDouble(le, &bound)) {
          return fail(where + ": unparsable le bound " + le);
        }
        h.buckets.emplace_back(bound, value);
      } else if (suffix == "_sum") {
        h.has_sum = true;
      } else {
        h.count = value;
      }
    }
  }
  if (samples == 0) return fail("no samples in " + path);

  for (const auto& [key, h] : histograms) {
    if (h.buckets.empty()) return fail(key + ": histogram without buckets");
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0 && !(h.buckets[i - 1].first < h.buckets[i].first)) {
        return fail(key + ": bucket bounds not increasing");
      }
      if (i > 0 && h.buckets[i - 1].second > h.buckets[i].second) {
        return fail(key + ": cumulative bucket counts decreasing");
      }
    }
    if (!std::isinf(h.buckets.back().first)) {
      return fail(key + ": histogram missing the +Inf bucket");
    }
    if (!h.has_sum || h.count < 0.0) {
      return fail(key + ": histogram missing _sum or _count");
    }
    if (h.buckets.back().second != h.count) {
      return fail(key + ": +Inf bucket disagrees with _count");
    }
  }
  return 0;
}

int validateJsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);

  std::map<std::string, double> last_t;
  std::size_t rows = 0;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = path + ":" + std::to_string(lineno);
    Json row;
    try {
      row = Json::parse(line);
    } catch (const JsonError& e) {
      return fail(where + ": parse error: " + e.what());
    }
    if (!row.isObject()) return fail(where + ": row is not an object");
    const Json* metric = row.find("metric");
    const Json* t = row.find("t");
    const Json* value = row.find("value");
    if (metric == nullptr || !metric->isString()) {
      return fail(where + ": missing string 'metric'");
    }
    if (t == nullptr || !t->isNumber() || t->asDouble() < 0.0) {
      return fail(where + ": missing non-negative 't'");
    }
    if (value == nullptr || !value->isNumber()) {
      return fail(where + ": missing numeric 'value'");
    }
    const std::string name = metric->asString();
    if (last_t.count(name) != 0 && t->asDouble() < last_t[name]) {
      return fail(where + ": timestamps go backwards for " + name);
    }
    last_t[name] = t->asDouble();
    ++rows;
  }
  if (rows == 0) return fail("no rows in " + path);
  if (last_t.count("gpu_util_pct") == 0) {
    return fail(path + ": expected gpu_util_pct series absent");
  }
  return 0;
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int validateFile(const std::string& path) {
  if (endsWith(path, ".prom")) return validatePrometheus(path);
  if (endsWith(path, ".jsonl")) return validateJsonl(path);

  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();

  Json doc;
  try {
    doc = Json::parse(buf.str());
  } catch (const JsonError& e) {
    return fail(std::string("parse error: ") + e.what());
  }
  if (!doc.isObject()) return fail("top-level value is not an object");
  if (doc.find("traceEvents") != nullptr) return validateTrace(doc);
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString()) {
    return fail("missing schema tag");
  }
  if (schema->asString() == "composim.bench.simcore/1") {
    return validateSimcore(doc);
  }
  if (schema->asString() == "composim.bench.analysis/1") {
    return validateAnalysis(doc);
  }
  return fail("unexpected schema tag: " + schema->asString());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return fail(
        "usage: bench_json_validate <BENCH_*.json | trace.json | *.prom | "
        "*.jsonl> [more...]");
  }
  for (int i = 1; i < argc; ++i) {
    if (validateFile(argv[i]) != 0) return 1;
  }
  return 0;
}
