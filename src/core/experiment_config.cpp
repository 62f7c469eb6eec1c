#include "core/experiment_config.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace composim::core {

SystemConfig configFromName(const std::string& name) {
  for (const auto c : allConfigs()) {
    if (name == toString(c)) return c;
  }
  if (name == toString(SystemConfig::AllGpus16)) return SystemConfig::AllGpus16;
  throw std::invalid_argument("unknown configuration '" + name + "'");
}

namespace {

dl::Strategy strategyFromName(const std::string& name) {
  if (name == "ddp" || name == "DDP") return dl::Strategy::DistributedDataParallel;
  if (name == "dp" || name == "DP") return dl::Strategy::DataParallel;
  throw std::invalid_argument("unknown strategy '" + name + "'");
}

devices::Precision precisionFromName(const std::string& name) {
  if (name == "fp16" || name == "FP16") return devices::Precision::FP16;
  if (name == "fp32" || name == "FP32") return devices::Precision::FP32;
  throw std::invalid_argument("unknown precision '" + name + "'");
}

/// An int-typed suite field; out-of-int-range values throw instead of
/// wrapping.
int intField(const falcon::Json& v, const char* key) {
  const std::int64_t x = v.asInt();
  if (x < std::numeric_limits<int>::min() ||
      x > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(std::string(key) + " out of int range");
  }
  return static_cast<int>(x);
}

/// The first key of object `obj` that is not in `known`, or nullptr.
const std::string* unknownKey(const falcon::Json& obj,
                              std::initializer_list<const char*> known) {
  for (const auto& [key, value] : obj.asObject()) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) return &key;
  }
  return nullptr;
}

/// A typo'd key must not silently run the default, so every key of `obj`
/// has to be in `known`; the error names the stray key and lists the
/// valid ones.
void rejectUnknownKeys(const falcon::Json& obj, const std::string& where,
                       std::initializer_list<const char*> known) {
  const std::string* key = unknownKey(obj, known);
  if (key == nullptr) return;
  std::string valid;
  for (const char* k : known) {
    if (!valid.empty()) valid += ", ";
    valid += k;
  }
  throw std::invalid_argument(where + ": unknown key '" + *key +
                              "'; valid keys: " + valid);
}

}  // namespace

namespace {

constexpr const char* kFaultKinds =
    "valid fault kinds: gpu_falloffs [{gpu, at}], "
    "ecc_storms [{gpu, at, errors?}], host_port_flaps [{port, at, downtime}]";

constexpr const char* kFaultSettings =
    "valid settings: seed, poll_interval, error_storm_threshold, spare_gpus, "
    "attach_failure_rate, max_attach_retries, attach_backoff_initial, "
    "attach_backoff_multiplier, attach_backoff_max, attach_backoff_jitter, "
    "attach_retry_budget, proactive_on_error_storm";

Status faultsError(const std::string& what) {
  return Status::invalidArgument("faults: " + what + "; " + kFaultKinds +
                                 "; " + kFaultSettings);
}

/// Every fault-entry object must carry exactly the keys its kind defines
/// (a typo'd or misplaced key silently changing a schedule is how a
/// reproducer stops reproducing).
Status checkEntryKeys(const falcon::Json& entry, const char* kind,
                      std::initializer_list<const char*> required,
                      std::initializer_list<const char*> optional) {
  if (!entry.isObject()) {
    return faultsError(std::string(kind) + " entries must be objects");
  }
  for (const auto& [key, value] : entry.asObject()) {
    (void)value;
    bool known = false;
    for (const char* k : required) known = known || key == k;
    for (const char* k : optional) known = known || key == k;
    if (!known) {
      return faultsError("unknown key '" + key + "' in " + kind + " entry");
    }
  }
  for (const char* k : required) {
    if (entry.find(k) == nullptr) {
      return faultsError(std::string(kind) + " entry missing key '" + k + "'");
    }
  }
  return Status::success();
}

/// A fault entry's target (key `key`, an index below `limit`) and its
/// time `at`, which must not be negative.
Status checkTarget(const char* kind, const char* key, std::int64_t index,
                   int limit, double at) {
  if (index < 0 || index >= limit) {
    return faultsError(std::string(kind) + " entry '" + key +
                       "' must be in [0, " + std::to_string(limit) + ")");
  }
  if (at < 0.0) {
    return faultsError(std::string(kind) + " entry 'at' must be >= 0");
  }
  return Status::success();
}

}  // namespace

Status parseFaultsConfig(const falcon::Json& doc, FaultsConfig* out) {
  if (!doc.isObject()) {
    return faultsError("document must be a JSON object");
  }
  if (const std::string* key = unknownKey(
          doc, {"seed", "poll_interval", "error_storm_threshold",
                "spare_gpus", "attach_failure_rate", "max_attach_retries",
                "attach_backoff_initial", "attach_backoff_multiplier",
                "attach_backoff_max", "attach_backoff_jitter",
                "attach_retry_budget", "proactive_on_error_storm",
                "gpu_falloffs", "ecc_storms", "host_port_flaps"})) {
    return faultsError("unknown key '" + *key + "'");
  }

  FaultsConfig faults;
  faults.enabled = true;
  try {
    if (const auto* v = doc.find("seed")) {
      faults.seed = static_cast<std::uint64_t>(v->asInt());
    }
    if (const auto* v = doc.find("poll_interval")) {
      faults.health_poll_interval = v->asDouble();
      if (faults.health_poll_interval <= 0.0) {
        return faultsError("poll_interval must be > 0");
      }
    }
    if (const auto* v = doc.find("error_storm_threshold")) {
      faults.error_storm_threshold = static_cast<std::uint64_t>(v->asInt());
    }
    if (const auto* v = doc.find("spare_gpus")) {
      const std::int64_t spares = v->asInt();
      if (spares < 0 ||
          spares > static_cast<std::int64_t>(kSpareGpuSlots.size())) {
        return faultsError("spare_gpus must be in [0, " +
                           std::to_string(kSpareGpuSlots.size()) +
                           "], the free Falcon slots");
      }
      faults.spare_gpus = static_cast<int>(spares);
    }
    if (const auto* v = doc.find("attach_failure_rate")) {
      faults.attach_failure_rate = v->asDouble();
      if (faults.attach_failure_rate < 0.0 || faults.attach_failure_rate > 1.0) {
        return faultsError("attach_failure_rate must be in [0, 1]");
      }
    }
    if (const auto* v = doc.find("max_attach_retries")) {
      faults.policy.max_attach_retries = static_cast<int>(v->asInt());
    }
    if (const auto* v = doc.find("attach_backoff_initial")) {
      faults.policy.attach_backoff_initial = v->asDouble();
    }
    if (const auto* v = doc.find("attach_backoff_multiplier")) {
      faults.policy.attach_backoff_multiplier = v->asDouble();
    }
    if (const auto* v = doc.find("attach_backoff_max")) {
      faults.policy.attach_backoff_max = v->asDouble();
    }
    if (const auto* v = doc.find("attach_backoff_jitter")) {
      faults.policy.attach_backoff_jitter = v->asDouble();
      if (faults.policy.attach_backoff_jitter < 0.0 ||
          faults.policy.attach_backoff_jitter >= 1.0) {
        return faultsError("attach_backoff_jitter must be in [0, 1)");
      }
    }
    if (const auto* v = doc.find("attach_retry_budget")) {
      faults.policy.attach_retry_budget = v->asDouble();
      if (faults.policy.attach_retry_budget < 0.0) {
        return faultsError("attach_retry_budget must be >= 0");
      }
    }
    if (const auto* v = doc.find("proactive_on_error_storm")) {
      faults.policy.proactive_on_error_storm = v->asBool();
    }
    if (const auto* v = doc.find("gpu_falloffs")) {
      for (const auto& f : v->asArray()) {
        if (Status st = checkEntryKeys(f, "gpu_falloffs", {"gpu", "at"}, {});
            !st.ok) {
          return st;
        }
        const std::int64_t gpu = f.at("gpu").asInt();
        const double at = f.at("at").asDouble();
        if (Status st =
                checkTarget("gpu_falloffs", "gpu", gpu, kFalconGpus, at);
            !st.ok) {
          return st;
        }
        faults.gpu_falloffs.push_back({static_cast<int>(gpu), at});
      }
    }
    if (const auto* v = doc.find("ecc_storms")) {
      for (const auto& f : v->asArray()) {
        if (Status st =
                checkEntryKeys(f, "ecc_storms", {"gpu", "at"}, {"errors"});
            !st.ok) {
          return st;
        }
        const std::int64_t gpu = f.at("gpu").asInt();
        FaultsConfig::EccStorm storm;
        storm.at = f.at("at").asDouble();
        if (Status st =
                checkTarget("ecc_storms", "gpu", gpu, kFalconGpus, storm.at);
            !st.ok) {
          return st;
        }
        storm.gpu_index = static_cast<int>(gpu);
        if (const auto* e = f.find("errors")) {
          const std::int64_t errors = e->asInt();
          if (errors < 0) {
            return faultsError("ecc_storms entry 'errors' must be >= 0");
          }
          storm.errors = static_cast<std::uint64_t>(errors);
        }
        faults.ecc_storms.push_back(storm);
      }
    }
    if (const auto* v = doc.find("host_port_flaps")) {
      for (const auto& f : v->asArray()) {
        if (Status st = checkEntryKeys(f, "host_port_flaps",
                                       {"port", "at", "downtime"}, {});
            !st.ok) {
          return st;
        }
        const std::int64_t port = f.at("port").asInt();
        const double at = f.at("at").asDouble();
        if (Status st = checkTarget("host_port_flaps", "port", port,
                                    falcon::FalconChassis::kHostPorts, at);
            !st.ok) {
          return st;
        }
        const double downtime = f.at("downtime").asDouble();
        if (!(downtime > 0.0)) {
          return faultsError("host_port_flaps entry 'downtime' must be > 0");
        }
        faults.host_port_flaps.push_back(
            {static_cast<int>(port), at, downtime});
      }
    }
  } catch (const std::exception& e) {
    // Shape errors from asInt/asDouble/at surface as JsonError.
    return faultsError(e.what());
  }
  *out = std::move(faults);
  return Status::success();
}

falcon::Json faultsConfigToJson(const FaultsConfig& faults) {
  // Fixed key order and defaults always emitted: shrunk chaos reproducers
  // must be byte-stable across runs, so the dump never depends on which
  // keys the source document happened to set.
  falcon::Json doc = falcon::Json::object();
  doc.set("seed", falcon::Json(static_cast<std::int64_t>(faults.seed)));
  doc.set("poll_interval", falcon::Json(faults.health_poll_interval));
  doc.set("error_storm_threshold",
          falcon::Json(static_cast<std::int64_t>(faults.error_storm_threshold)));
  doc.set("spare_gpus", falcon::Json(static_cast<std::int64_t>(faults.spare_gpus)));
  doc.set("attach_failure_rate", falcon::Json(faults.attach_failure_rate));
  doc.set("max_attach_retries",
          falcon::Json(static_cast<std::int64_t>(faults.policy.max_attach_retries)));
  doc.set("attach_backoff_initial",
          falcon::Json(faults.policy.attach_backoff_initial));
  doc.set("attach_backoff_multiplier",
          falcon::Json(faults.policy.attach_backoff_multiplier));
  doc.set("attach_backoff_max", falcon::Json(faults.policy.attach_backoff_max));
  doc.set("attach_backoff_jitter",
          falcon::Json(faults.policy.attach_backoff_jitter));
  doc.set("attach_retry_budget",
          falcon::Json(faults.policy.attach_retry_budget));
  doc.set("proactive_on_error_storm",
          falcon::Json(faults.policy.proactive_on_error_storm));
  falcon::Json falloffs = falcon::Json::array();
  for (const auto& f : faults.gpu_falloffs) {
    falcon::Json e = falcon::Json::object();
    e.set("gpu", falcon::Json(static_cast<std::int64_t>(f.gpu_index)));
    e.set("at", falcon::Json(f.at));
    falloffs.push(std::move(e));
  }
  doc.set("gpu_falloffs", std::move(falloffs));
  falcon::Json storms = falcon::Json::array();
  for (const auto& s : faults.ecc_storms) {
    falcon::Json e = falcon::Json::object();
    e.set("gpu", falcon::Json(static_cast<std::int64_t>(s.gpu_index)));
    e.set("at", falcon::Json(s.at));
    e.set("errors", falcon::Json(static_cast<std::int64_t>(s.errors)));
    storms.push(std::move(e));
  }
  doc.set("ecc_storms", std::move(storms));
  falcon::Json flaps = falcon::Json::array();
  for (const auto& h : faults.host_port_flaps) {
    falcon::Json e = falcon::Json::object();
    e.set("port", falcon::Json(static_cast<std::int64_t>(h.port)));
    e.set("at", falcon::Json(h.at));
    e.set("downtime", falcon::Json(h.downtime));
    flaps.push(std::move(e));
  }
  doc.set("host_port_flaps", std::move(flaps));
  return doc;
}

MetricsConfig parseMetricsConfig(const falcon::Json& doc) {
  rejectUnknownKeys(doc, "metrics", {"scrape_interval", "alerts"});
  MetricsConfig metrics;
  if (const auto* v = doc.find("scrape_interval")) {
    metrics.scrape_interval = v->asDouble();
  }
  if (const auto* v = doc.find("alerts")) {
    for (const auto& rule : v->asArray()) {
      // Validate at parse time so a bad suite fails before any run starts.
      telemetry::parseAlertRule(rule.asString());
      metrics.alerts.push_back(rule.asString());
    }
  }
  return metrics;
}

std::vector<ExperimentSpec> parseExperimentSuite(const falcon::Json& doc) {
  std::vector<ExperimentSpec> specs;
  for (const auto& e : doc.at("experiments").asArray()) {
    rejectUnknownKeys(
        e, "experiments[" + std::to_string(specs.size()) + "]",
        {"name", "workload", "benchmark", "config", "epochs",
         "iterations_cap", "batch_per_gpu", "strategy", "precision",
         "sharded", "accumulation", "sample_interval", "trace", "analysis",
         "warm_prefix", "watchdog", "faults", "metrics"});
    ExperimentSpec s;
    s.name = e.at("name").asString();
    if (const auto* v = e.find("workload")) {
      s.workload = v->asString();
    } else if (const auto* v2 = e.find("benchmark")) {
      s.workload = v2->asString();  // legacy key
    } else {
      throw std::invalid_argument("experiment '" + s.name +
                                  "' has no \"workload\" key");
    }
    s.options.workload = s.workload;
    dl::workload(s.workload);  // validate early (throws with known names)
    s.config = configFromName(e.at("config").asString());
    if (const auto* v = e.find("epochs")) {
      s.options.trainer.epochs = intField(*v, "epochs");
    }
    if (const auto* v = e.find("iterations_cap")) {
      s.options.trainer.max_iterations_per_epoch =
          intField(*v, "iterations_cap");
    }
    if (const auto* v = e.find("batch_per_gpu")) {
      s.options.trainer.batch_per_gpu = intField(*v, "batch_per_gpu");
    }
    if (const auto* v = e.find("strategy")) {
      s.options.trainer.strategy = strategyFromName(v->asString());
    }
    if (const auto* v = e.find("precision")) {
      s.options.trainer.precision = precisionFromName(v->asString());
    }
    if (const auto* v = e.find("sharded")) {
      s.options.trainer.sharded = v->asBool();
    }
    if (const auto* v = e.find("accumulation")) {
      s.options.trainer.gradient_accumulation_steps =
          intField(*v, "accumulation");
    }
    if (const auto* v = e.find("sample_interval")) {
      s.options.sample_interval = v->asDouble();
    }
    if (const auto* v = e.find("trace")) {
      s.options.trace = v->asBool();
    }
    if (const auto* v = e.find("analysis")) {
      s.options.analysis = v->asBool();
    }
    if (const auto* v = e.find("warm_prefix")) {
      s.options.warm_prefix = v->asInt();
    }
    if (const auto* v = e.find("watchdog")) {
      s.options.watchdog = v->asDouble();
    }
    if (const auto* v = e.find("faults")) {
      if (const Status st = parseFaultsConfig(*v, &s.options.faults); !st) {
        throw std::invalid_argument(st.detail);
      }
    }
    if (const auto* v = e.find("metrics")) {
      s.options.metrics = parseMetricsConfig(*v);
    }
    specs.push_back(std::move(s));
  }
  return specs;
}

bool warmPrefixApplicable(const ExperimentSpec& spec) {
  const std::int64_t w = spec.options.warm_prefix;
  if (w <= 0) return false;
  // Fault schedules are fork-eligible: activation is deferred to the
  // resume step, so a prefix is fault-free whenever every injection time
  // lands inside the tail. That is a run-time property (it needs the
  // pause boundary's simulated time); WarmedExperiment validates it and
  // callers fall back to a cold run when it fails.
  if (spec.options.trainer.checkpoint_every_iters > 0 &&
      w >= spec.options.trainer.checkpoint_every_iters) {
    return false;
  }
  const dl::ModelSpec model = dl::workload(spec.workload);
  return w < dl::epochIterations(model, dl::datasetFor(model),
                                 spec.options.trainer,
                                 trainingGpuCount(spec.config))
                 .simulated;
}

std::string warmPrefixKey(const ExperimentSpec& spec) {
  const dl::TrainerOptions& t = spec.options.trainer;
  std::ostringstream key;
  key << spec.workload << '|' << toString(spec.config)               //
      << "|strategy=" << static_cast<int>(t.strategy)                //
      << "|precision=" << static_cast<int>(t.precision)              //
      << "|sharded=" << t.sharded                                    //
      << "|batch=" << t.batch_per_gpu                                //
      << "|accum=" << t.gradient_accumulation_steps                  //
      << "|buckets=" << t.gradient_buckets                           //
      << "|ckpt_iters=" << t.checkpoint_every_iters                  //
      << "|prefetch=" << t.pipeline.prefetch_batches                 //
      << "|seed=" << t.seed                                          //
      // Spares are installed at construction, so they are prefix
      // topology; every other faults field only shapes the tail.
      << "|spares="
      << (spec.options.faults.enabled ? spec.options.faults.spare_gpus : 0)  //
      << "|sample=" << spec.options.sample_interval                  //
      << "|scrape=" << spec.options.metrics.scrape_interval          //
      << "|trace=" << spec.options.trace                             //
      // Analysis implies trace, so it is a prefix-compatibility input.
      << "|analyze=" << spec.options.analysis                        //
      << "|warm=" << spec.options.warm_prefix << "|alerts=";
  for (const std::string& rule : spec.options.metrics.alerts) {
    key << rule << ';';
  }
  return key.str();
}

ExperimentResult runExperimentSpec(const ExperimentSpec& spec) {
  const dl::ModelSpec model = dl::workload(spec.workload);
  if (warmPrefixApplicable(spec)) {
    if (!spec.options.faults.enabled) {
      WarmedExperiment warmed(spec.config, model, spec.options);
      return warmed.finish();
    }
    // A faulted spec is only phased when its whole schedule lands inside
    // the tail — knowable only once the prefix's pause time exists. The
    // ctor validates and throws; fall back to a continuous run then.
    // (Only ctor errors are caught: a watchdog trip in finish() must
    // propagate as the run's failure, not trigger a doomed re-run.)
    std::optional<WarmedExperiment> warmed;
    try {
      warmed.emplace(spec.config, model, spec.options);
    } catch (const std::runtime_error&) {
      return Experiment::run(spec.config, model, spec.options);
    }
    return warmed->finish();
  }
  return Experiment::run(spec.config, model, spec.options);
}

namespace {

/// Inline JSON or a path to a JSON file (see loadExperimentSuite).
Status loadJsonSpec(const std::string& spec, falcon::Json* out) {
  std::string text = spec;
  if (text.empty() || text[0] != '{') {
    std::ifstream in(spec);
    if (!in) return Status::notFound("cannot open '" + spec + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  try {
    *out = falcon::Json::parse(text);
  } catch (const falcon::JsonError& e) {
    return Status::invalidArgument(e.what());
  }
  return Status::success();
}

/// loadJsonSpec, then a throwing parser; its exceptions become
/// InvalidArgument.
template <typename T, typename Parse>
Status loadWith(const std::string& spec, T* out, Parse parse) {
  falcon::Json doc;
  if (Status s = loadJsonSpec(spec, &doc); !s) return s;
  try {
    *out = parse(doc);
  } catch (const std::exception& e) {
    return Status::invalidArgument(e.what());
  }
  return Status::success();
}

}  // namespace

Status loadExperimentSuite(const std::string& spec,
                           std::vector<ExperimentSpec>* out) {
  return loadWith(spec, out, [](const falcon::Json& doc) {
    return parseExperimentSuite(doc);
  });
}

Status loadFaultsConfig(const std::string& spec, FaultsConfig* out) {
  falcon::Json doc;
  if (Status s = loadJsonSpec(spec, &doc); !s) return s;
  return parseFaultsConfig(doc, out);
}

Status loadMetricsConfig(const std::string& spec, MetricsConfig* out) {
  return loadWith(spec, out, [](const falcon::Json& doc) {
    return parseMetricsConfig(doc);
  });
}

}  // namespace composim::core
