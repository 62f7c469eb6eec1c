#include "inputs.hpp"

#include <cmath>

namespace e2ebench {

using namespace composim;

namespace {

/// splitmix64: the benchmark's own generator, so the inputs do not depend
/// on any random-number code inside the simulator.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Millisecond grid, rounded up: a quantized fault time never moves
/// earlier, so it stays strictly after the boundary it was drawn above.
double ceilMs(double t) { return std::ceil(t * 1000.0) / 1000.0; }

constexpr std::uint64_t kSweepStream = 0xfa017f0e5eedULL;

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {kMatrix, kAnalyze,
                                                 kFaultSweep};
  return names;
}

std::string graphRef(const std::string& slug) {
  return "graph:examples/graphs/" + slug + ".graph.json";
}

std::vector<std::string> tableIIRefs() {
  return {graphRef("mobilenetv2"), graphRef("resnet_50"),
          graphRef("yolov5_l"), graphRef("bert"), graphRef("bert_l")};
}

core::ExperimentOptions matrixOptions(std::uint64_t seed) {
  core::ExperimentOptions o;
  o.trainer.epochs = 1;
  o.trainer.max_iterations_per_epoch = kMatrixIterations;
  o.trainer.seed = seed;
  return o;
}

std::vector<core::SystemConfig> analyzeConfigs() {
  return {core::SystemConfig::LocalGpus, core::SystemConfig::FalconGpus};
}

core::ExperimentOptions analyzeOptions(std::uint64_t seed, bool analysis) {
  core::ExperimentOptions o;
  o.workload = graphRef("bert_l");
  o.trainer.epochs = 1;
  o.trainer.max_iterations_per_epoch = kAnalyzeIterations;
  o.trainer.seed = seed;
  o.analysis = analysis;
  return o;
}

core::ExperimentOptions sweepBaseOptions(std::uint64_t seed) {
  SplitMix rng(seed ^ kSweepStream);
  core::ExperimentOptions o;
  o.workload = graphRef("resnet_50");
  o.trainer.epochs = 1;
  o.trainer.max_iterations_per_epoch = kSweepIterations;
  o.trainer.seed = seed;
  o.warm_prefix = kWarmPrefix;
  o.watchdog = kWatchdogS;
  o.faults.enabled = true;
  o.faults.health_poll_interval = 0.25;
  o.faults.spare_gpus = 1 + static_cast<int>(rng.next() % 2);
  o.faults.attach_failure_rate = 0.25;
  return o;
}

double measureBoundary(const dl::ModelSpec& model, std::uint64_t seed) {
  core::WarmedExperiment donor(kSweepConfig, model, sweepBaseOptions(seed));
  return donor.snapshot().sim.now;
}

std::vector<core::ExperimentSpec> faultSuite(std::uint64_t seed,
                                             double boundary) {
  // A fixed kind mix keeps the suite's cost comparable across seeds; the
  // seed draws every target, time and magnitude.
  enum Kind { Falloff, EccStorm, PortFlap };
  static constexpr Kind kKinds[kSweepSpecs] = {
      Falloff, EccStorm, PortFlap, Falloff, EccStorm, PortFlap, Falloff,
      EccStorm};
  static constexpr const char* kKindNames[] = {"falloff", "ecc", "flap"};
  static constexpr int kHostPorts[] = {0, 2};  // H1, H3: the training ports

  const core::ExperimentOptions base = sweepBaseOptions(seed);
  SplitMix rng(seed ^ (kSweepStream << 1));
  // Tail length in simulated seconds, from the prefix's mean iteration.
  const double tail = boundary / static_cast<double>(kWarmPrefix) *
                      static_cast<double>(kSweepIterations - kWarmPrefix);

  std::vector<core::ExperimentSpec> specs;
  for (int i = 0; i < kSweepSpecs; ++i) {
    core::ExperimentSpec s;
    s.workload = base.workload;
    s.config = kSweepConfig;
    s.options = base;
    core::FaultsConfig& f = s.options.faults;
    f.seed = rng.next();
    const double at = ceilMs(boundary + rng.uniform(0.15, 0.75) * tail);
    const int gpu = static_cast<int>(rng.next() % 8);
    switch (kKinds[i]) {
      case Falloff:
        f.gpu_falloffs.push_back({gpu, at});
        break;
      case EccStorm:
        f.ecc_storms.push_back({gpu, at, 200 + rng.next() % 800});
        break;
      case PortFlap:
        f.host_port_flaps.push_back(
            {kHostPorts[rng.next() % 2], at, ceilMs(rng.uniform(0.5, 2.0))});
        break;
    }
    s.name = "fault-" + std::to_string(i) + "-" + kKindNames[kKinds[i]];
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace e2ebench
