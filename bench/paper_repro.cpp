// Reproduces the paper's evaluation (Tables I-IV, Figs 5-16) and the
// extension studies of DESIGN.md sections 7 and 9 (ext_*), and gates them
// against the paper's and the studies' claims.
//
//   paper_repro [--jobs N] [artifact...]
//
// With no names it prints every artifact of kArtifacts in order, otherwise
// the named ones in the order given. All training runs go through one
// core::sweepOrdered pass, so stdout is byte-identical at any --jobs.
// Each printed artifact writes one verdict line per claim of kClaims to
// stderr; a value outside its band exits 1, naming the claim, and a usage
// error exits 2. A `deviates` claim, where the model does not reproduce the
// paper, is pinned to today's value (± one unit of its last quoted digit),
// so drift there fails too; so is a bare number an extension study quotes.
// EXPERIMENTS.md discusses every claim.
#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "collectives/communicator.hpp"
#include "core/composable_system.hpp"
#include "core/software_stack.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/bandwidth_probe.hpp"
#include "fabric/nvlink_mesh.hpp"
#include "falcon/topology_view.hpp"
#include "telemetry/report.hpp"

using namespace composim;

namespace {

enum class Verdict { Reproduced, Deviates };

struct Claim {
  std::string_view id;       // "<artifact>.<what>": that artifact checks it
  std::string_view section;  // the paper's table or figure
  std::string_view metric;   // what is measured, in which unit
  double paper;              // the paper's value or its inequality's bound
  double lo, hi;             // closed band every measured value must lie in
  Verdict verdict = Verdict::Reproduced;
  std::string_view gap = {};  // Deviates: the signed gap from the paper
};

constexpr double kUnquoted = std::numeric_limits<double>::quiet_NaN();
/// The doubles next to 1: a closed band ending there states "< 1" or "> 1".
constexpr double kBelow1 = 1 - std::numeric_limits<double>::epsilon() / 2;
constexpr double kAbove1 = 1 + std::numeric_limits<double>::epsilon();

/// Reproduced within ±pct % of the paper value.
constexpr Claim within(std::string_view id, std::string_view section,
                       std::string_view metric, double paper, double pct) {
  return {id, section, metric, paper, paper * (1 - pct / 100), paper * (1 + pct / 100)};
}

/// Not reproduced: the band is pinned around today's value.
constexpr Claim deviates(std::string_view id, std::string_view section,
                         std::string_view metric, double paper, double lo, double hi,
                         std::string_view gap) {
  return {id, section, metric, paper, lo, hi, Verdict::Deviates, gap};
}

// A reproduced band contains the paper value or satisfies its inequality.
constexpr Claim kClaims[] = {
    within("table2.mobilenetv2_params", "Table II", "MobileNetV2 parameters (M)", 3.4, 5),
    within("table2.resnet50_params", "Table II", "ResNet-50 parameters (M)", 25.6, 5),
    within("table2.yolov5l_params", "Table II", "YOLOv5-L parameters (M)", 47, 5),
    within("table2.bert_params", "Table II", "BERT parameters (M)", 110, 5),
    within("table2.bertl_params", "Table II", "BERT-L parameters (M)", 340, 5),
    {"table2.mobilenetv2_depth", "Table II", "MobileNetV2 depth", 53, 53, 53},
    {"table2.resnet50_depth", "Table II", "ResNet-50 depth", 50, 50, 50},
    {"table2.yolov5l_depth", "Table II", "YOLOv5-L depth", 392, 392, 392},
    {"table2.bert_depth", "Table II", "BERT depth", 12, 12, 12},
    {"table2.bertl_depth", "Table II", "BERT-L depth", 24, 24, 24},
    {"table3.gpus", "Table III", "training GPUs, every configuration", 8, 8, 8},
    {"table3.localgpus_falcon_gpus", "Table III", "falcon GPUs of localGPUs", 0, 0, 0},
    {"table3.hybridgpus_falcon_gpus", "Table III", "falcon GPUs of hybridGPUs", 4, 4, 4},
    {"table3.falcongpus_falcon_gpus", "Table III", "falcon GPUs of falconGPUs", 8, 8, 8},
    {"table3.localnvme_falcon_gpus", "Table III", "falcon GPUs of localNVMe", 0, 0, 0},
    {"table3.falconnvme_falcon_gpus", "Table III", "falcon GPUs of falconNVMe", 0, 0, 0},
    within("table4.ll_bidir_gbs", "Table IV", "L-L bidirectional bandwidth (GB/s)", 72.37, 0.2),
    within("table4.fl_bidir_gbs", "Table IV", "F-L bidirectional bandwidth (GB/s)", 19.64, 0.2),
    within("table4.ff_bidir_gbs", "Table IV", "F-F bidirectional bandwidth (GB/s)", 24.47, 0.2),
    within("table4.ll_latency_us", "Table IV", "L-L P2P write latency (us)", 1.85, 0.2),
    within("table4.fl_latency_us", "Table IV", "F-L P2P write latency (us)", 2.66, 0.2),
    within("table4.ff_latency_us", "Table IV", "F-F P2P write latency (us)", 2.08, 0.2),
    deviates("fig5.disk_over_membus_latency", "Fig 5", "disk-path / memory-bus latency (x)",
             100, 1088, 1090, "+989 %, 10.9x the top of the paper's 5-100x"),
    deviates("fig9.bertl_minus_top_vision_plateau", "Fig 9",
             "BERT-L plateau minus the highest vision plateau (pp)", 0, -2.2, -2.0,
             "-2.1 pp: YOLOv5-L's 95.6 % plateau is above BERT-L's 93.5 %"),
    {"fig10.resnet50_gpu_util", "Fig 10", "ResNet-50 GPU util, 3 configs (%)", 80, 80, 100},
    {"fig10.bert_gpu_util", "Fig 10", "BERT GPU util, 3 configs (%)", 80, 80, 100},
    {"fig10.bertl_gpu_util", "Fig 10", "BERT-L GPU util, 3 configs (%)", 80, 80, 100},
    deviates("fig10.mobilenetv2_gpu_util", "Fig 10", "MobileNetV2 GPU util, 3 configs (%)",
             80, 74.7, 75.1, "-5.2 to -5.0 pp under the paper's > 80 %"),
    deviates("fig10.yolov5l_gpu_util", "Fig 10", "YOLOv5-L GPU util, 3 configs (%)",
             80, 75.0, 75.6, "-4.9 to -4.5 pp under the paper's > 80 %"),
    {"fig11.mobilenetv2_slowdown", "Fig 11", "MobileNetV2 time change (%)", 5, 0, 5},
    {"fig11.resnet50_slowdown", "Fig 11", "ResNet-50 time change (%)", 5, 0, 5},
    {"fig11.yolov5l_slowdown", "Fig 11", "YOLOv5-L time change (%)", 7, 0, 7},
    {"fig11.bertl_falcon_over_local", "Fig 11", "BERT-L falcon / local time (x)", 2, 1.5, 2.0},
    within("fig12.resnet50_falcon_gbs", "Fig 12", "ResNet-50 falconGPUs PCIe (GB/s)", 11.31, 20),
    within("fig12.bertl_falcon_gbs", "Fig 12", "BERT-L falconGPUs PCIe (GB/s)", 76.43, 20),
    deviates("fig12.mobilenetv2_falcon_gbs", "Fig 12", "MobileNetV2 falconGPUs PCIe (GB/s)",
             4, 5.54, 5.56, "+39 % over the paper's ~4 GB/s"),
    {"fig13.vision_minus_nlp_cpu", "Fig 13", "lowest vision - highest NLP CPU (pp)", 0, 0, 100},
    {"fig14.host_mem_util", "Fig 14", "host memory util, 5 models x 3 configs (%)", 10, 0, 10},
    {"fig15.yolov5l_nvme_change", "Fig 15", "YOLOv5-L time change (%)", 0, -100, 0},
    {"fig15.bert_nvme_change", "Fig 15", "BERT time change (%)", 0, -100, 0},
    {"fig15.bertl_nvme_change", "Fig 15", "BERT-L time change (%)", 0, -100, 0},
    {"fig15.falcon_minus_local_nvme", "Fig 15", "max |falconNVMe - localNVMe| (pp)", 0, 0, 0.01},
    {"fig16.batch_fp32", "Fig 16", "DP + FP32 batch, local, falcon", kUnquoted, 3, 3},
    {"fig16.batch_fp16", "Fig 16", "DP and DDP + FP16 batch, local, falcon", 6, 6, 6},
    {"fig16.batch_sharded", "Fig 16", "DDP + FP16 + sharded batch, local, falcon", 10, 10, 10},
    {"fig16.fp16_iteration_cut", "Fig 16", "DP FP16 vs FP32 iteration-time cut, local, falcon (%)",
     50, 50, 100},
    deviates("fig16.fp16_iteration_cut_falcon", "Fig 16",
             "DP FP16 vs FP32 iteration-time cut, falcon (%)", 70, 50.9, 51.1,
             "-19.0 pp under the paper's > 70 % on Falcon"),
    // Extension studies: the paper quotes nothing. A band states the
    // study's inequality; a bare number is pinned like a deviation.
    {"ext_ablation.buckets6_over_1", "DESIGN §7",
     "BERT-L falconGPUs iteration, 6 / 1 DDP buckets (x, < 1)", kUnquoted, 0, kBelow1},
    {"ext_ablation.prefetch2_over_1", "DESIGN §7",
     "YOLOv5-L localGPUs iteration, prefetch depth 2 / 1 (x, < 1)", kUnquoted, 0, kBelow1},
    {"ext_ablation.auto_over_fastest", "DESIGN §7",
     "auto / fastest of ring, tree, hierarchical, 256 MiB, 3 fabrics (x)", kUnquoted, 1, 1},
    {"ext_scaling.resnet50_efficiency16", "§VI; DESIGN §9",
     "ResNet-50 16-GPU scaling efficiency (%)", kUnquoted, 95, 100},
    {"ext_scaling.bertl_efficiency16", "§VI; DESIGN §9", "BERT-L 16-GPU scaling efficiency (%)",
     kUnquoted, 52.2, 52.4},
    {"ext_scaling.bertl_16_over_8_gpus", "§VI; DESIGN §9",
     "BERT-L 16-GPU / 8-GPU throughput (x, > 1)", kUnquoted, kAbove1, 2},
    {"ext_cotenancy.interference", "§VI; DESIGN §9",
     "tenant A iteration-time change under tenant B's storm (%)", kUnquoted, -0.01, 0.01},
    {"ext_cotenancy.shared_links", "§VI; DESIGN §9",
     "fabric links on both a tenant-A and a tenant-B route (count)", kUnquoted, 0, 0},
    {"ext_heterogeneous.mixed_vs_8xv100", "§VI; DESIGN §9",
     "4x V100 + 4x P100 throughput, % of 8x V100", kUnquoted, 16.1, 16.3},
    {"ext_heterogeneous.mixed_over_4xv100", "§VI; DESIGN §9",
     "4x V100 + 4x P100 / 4x V100 throughput (x, < 1)", kUnquoted, 0, kBelow1},
    {"ext_nccl.nvlink_over_falcon_busbw", "DESIGN §9",
     "localGPUs / falconGPUs all-reduce busbw at 1 GiB (x)", kUnquoted, 5.8, 6.0},
};

/// Checks measured values against kClaims and keeps the verdicts.
class Gate {
 public:
  /// Every value must lie in claim `id`'s band; writes the verdict line.
  void check(const std::string& id, const std::vector<double>& values) {
    const Claim* c = std::find_if(std::begin(kClaims), std::end(kClaims),
                                  [&](const Claim& x) { return x.id == id; });
    if (c == std::end(kClaims)) throw std::logic_error(std::string("no claim ").append(id));
    checked_[static_cast<std::size_t>(c - std::begin(kClaims))] = true;
    std::string shown, paper = std::isnan(c->paper) ? "not quoted" : num(c->paper);
    bool inside = !values.empty();  // no value is no evidence
    for (const double v : values) {
      inside = inside && v >= c->lo && v <= c->hi;
      shown.append(shown.empty() ? "" : ", ").append(num(v));
    }
    if (!c->gap.empty()) paper.append(", gap ").append(c->gap);
    if (!inside) failed_.append(" ").append(id);
    std::fprintf(stderr, "%-4s %-10s %s = %s %s [%s, %s]; paper %s (%s: %s)\n",
                 inside ? "ok" : "FAIL",
                 c->verdict == Verdict::Reproduced ? "reproduced" : "deviates", id.c_str(),
                 shown.c_str(), inside ? "in" : "outside", num(c->lo).c_str(),
                 num(c->hi).c_str(), paper.c_str(), std::string(c->section).c_str(),
                 std::string(c->metric).c_str());
  }

  /// Exit status: 1 if a claim failed or an artifact in `printed` left one
  /// of its claims unchecked, else 0.
  int finish(const std::vector<std::string_view>& printed) {
    for (std::size_t k = 0; k < std::size(kClaims); ++k) {
      const auto owner = kClaims[k].id.substr(0, kClaims[k].id.find('.'));
      if (std::count(printed.begin(), printed.end(), owner) > 0 && !checked_[k]) {
        failed_.append(" ").append(kClaims[k].id).append(" (never checked)");
      }
    }
    std::fprintf(stderr, "paper_repro: %td claims checked, %s\n",
                 std::count(checked_.begin(), checked_.end(), true),
                 failed_.empty() ? "all hold" : ("failed:" + failed_).c_str());
    return failed_.empty() ? 0 : 1;
  }

 private:
  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }

  std::vector<bool> checked_ = std::vector<bool>(std::size(kClaims));
  std::string failed_;
};

/// One Experiment::run an artifact needs.
struct Run {
  core::SystemConfig config;
  dl::ModelSpec model;
  core::ExperimentOptions opt;
};

/// A run set's plan and its results, index-aligned.
struct Runs {
  std::span<const Run> plan;
  std::span<const core::ExperimentResult> results;
};

/// The paper zoo on three configurations, model-major: runs [k, k + 3)
/// are one model in `configs` order.
std::vector<Run> zooOn(const std::vector<core::SystemConfig>& configs,
                       const core::ExperimentOptions& opt) {
  std::vector<Run> runs;
  for (const auto& model : dl::WorkloadRegistry::instance().paperZoo()) {
    for (const auto config : configs) runs.push_back({config, model, opt});
  }
  return runs;
}

std::vector<Run> fig9Runs() {
  std::vector<Run> runs;
  for (const auto& model : dl::WorkloadRegistry::instance().paperZoo()) {
    core::ExperimentOptions opt;
    // The NLP runs are only 2 epochs; give them more iterations so the
    // plateau dominates the inter-epoch checkpoint dip, as it does in a
    // full-length epoch. Sample fast enough to see the dips.
    opt.trainer.max_iterations_per_epoch = (model.domain == dl::Domain::NLP) ? 30 : 12;
    opt.sample_interval = 0.1;
    runs.push_back({core::SystemConfig::LocalGpus, model, opt});
  }
  return runs;
}

// Figs 10, 12, 13 and 14 share one matrix of short runs: 15 iterations of
// one epoch (the steady-state pattern, not the wall-clock, is the artifact).
std::vector<Run> figureRuns() {
  core::ExperimentOptions opt;
  opt.trainer.max_iterations_per_epoch = 15;
  opt.trainer.epochs = 1;
  return zooOn(core::gpuConfigs(), opt);
}

std::vector<Run> fig11Runs() { return zooOn(core::gpuConfigs(), {}); }

std::vector<Run> fig15Runs() {
  core::ExperimentOptions opt;
  opt.trainer.max_iterations_per_epoch = 15;
  return zooOn(core::storageConfigs(), opt);
}

struct Fig16Variant {
  const char* label;
  dl::Strategy strategy;
  devices::Precision precision;
  bool sharded;
};

constexpr Fig16Variant kFig16Variants[] = {
    {"DP + FP32", dl::Strategy::DataParallel, devices::Precision::FP32, false},
    {"DP + FP16", dl::Strategy::DataParallel, devices::Precision::FP16, false},
    {"DDP + FP16", dl::Strategy::DistributedDataParallel, devices::Precision::FP16, false},
    {"DDP + FP16 + sharded", dl::Strategy::DistributedDataParallel,
     devices::Precision::FP16, true},
};

// BERT-L on local and falcon GPUs, each variant at its own maximum
// memory-feasible batch (FP32 fits fewer samples, sharding fits more).
std::vector<Run> fig16Runs() {
  std::vector<Run> runs;
  const auto model = dl::workload("BERT-L");
  for (const auto config : {core::SystemConfig::LocalGpus, core::SystemConfig::FalconGpus}) {
    for (const auto& v : kFig16Variants) {
      core::ExperimentOptions opt;
      opt.trainer.max_iterations_per_epoch = 12;
      opt.trainer.epochs = 1;
      opt.trainer.strategy = v.strategy;
      opt.trainer.precision = v.precision;
      opt.trainer.sharded = v.sharded;
      core::ComposableSystem probe(config);
      dl::Trainer planner(probe.sim(), probe.network(), probe.topology(),
                          probe.trainingGpus(), probe.cpu(), probe.hostMemory(),
                          probe.trainingStorage(), model, dl::datasetFor(model),
                          opt.trainer);
      opt.trainer.batch_per_gpu = planner.maxFeasibleBatchPerGpu();
      runs.push_back({config, model, opt});
    }
  }
  return runs;
}

/// "fig10.", "BERT-L", "_gpu_util" -> "fig10.bertl_gpu_util".
std::string claimId(const char* artifact, std::string_view name, const char* what) {
  std::string id = artifact;
  for (const unsigned char c : name) {
    if (std::isalnum(c)) id += static_cast<char>(std::tolower(c));
  }
  return id.append(what);
}

void table1(Runs, Gate&) {
  bench::banner("Table I", "Software Stack Details (modelled)");
  telemetry::Table t({"Component", "Version"});
  for (const auto& row : core::softwareStack()) t.addRow({row.component, row.version});
  std::printf("%s", t.render().c_str());
  std::printf("\nEvery row matches the paper verbatim: these versions define the\n");
  std::printf("behaviours (DDP bucketing, NCCL rings/protocols, AMP) the\n");
  std::printf("simulator reproduces. See DESIGN.md section 4 for the mapping.\n");
}

// Parameter counts come from the zoo's layer-level architectures.
void table2(Runs, Gate& gate) {
  bench::banner("Table II", "Characteristics of the Evaluated DL Benchmarks");
  telemetry::Table t({"Benchmarks", "Domain", "Dataset", "Parameters", "Depth",
                      "Fwd GFLOPs/sample", "Layer objects"});
  for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
    const double millions = static_cast<double>(m.totalParams()) / 1e6;
    t.addRow({m.name, toString(m.domain), m.dataset, telemetry::fmt(millions, 1) + "M",
              std::to_string(m.reported_depth),
              telemetry::fmt(m.forwardFlopsPerSample() / 1e9, 1),
              std::to_string(m.layerCount())});
    gate.check(claimId("table2.", m.name, "_params"), {millions});
    gate.check(claimId("table2.", m.name, "_depth"), {double(m.reported_depth)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nPaper reference parameters: 3.4M / 25.6M / 47M / 110M / 340M.\n");
}

// Printed from the live systems, with the wiring verified.
void table3(Runs, Gate& gate) {
  bench::banner("Table III", "Composable Host Configurations (live-verified)");
  telemetry::Table t({"Label", "Host Configuration (paper)", "GPUs built",
                      "local/falcon", "storage device"});
  const char* kPaperText[] = {
      "8 local GPUs and local storage",
      "4 local GPUs, 4 falcon GPUs, and local storage",
      "8 falcon-attached GPUs",
      "8 local GPUs and local NVMe",
      "8 local GPUs and falcon-attached NVMe",
  };
  int row = 0;
  std::vector<double> counts;
  for (const auto config : core::allConfigs()) {
    core::ComposableSystem sys(config);
    const auto gpus = sys.trainingGpus();
    int local = 0, falcon = 0;
    for (const auto* g : gpus) {
      (g->name().find("falcon") != std::string::npos ? falcon : local)++;
    }
    t.addRow({core::toString(config), kPaperText[row++], std::to_string(gpus.size()),
              std::to_string(local) + "/" + std::to_string(falcon),
              sys.trainingStorage().name()});
    counts.push_back(double(gpus.size()));
    gate.check(claimId("table3.", core::toString(config), "_falcon_gpus"), {double(falcon)});
  }
  gate.check("table3.gpus", counts);
  std::printf("%s", t.render().c_str());
  std::printf("\nExtension row: allGPUs16 composes all 16 GPUs (8 local + 8\n");
  std::printf("falcon) behind one host — see paper_repro ext_scaling.\n");
}

// Local-Local (NVLink), Falcon-Local (PCIe 4.0 through the host adapter)
// and Falcon-Falcon (PCIe 4.0 through one drawer switch), measured like
// CUDA's p2pBandwidthLatencyTest: large transfers for bandwidth, empty
// transfers for the write latency.
void table4(Runs, Gate& gate) {
  bench::banner("Table IV", "GPU-GPU Bandwidth, Latency, and Protocol");
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  const fabric::NodeId l0 = sys.localGpus()[0]->node(), l1 = sys.localGpus()[1]->node();
  const fabric::NodeId f0 = sys.falconGpus()[0]->node(), f1 = sys.falconGpus()[1]->node();
  const std::pair<fabric::NodeId, fabric::NodeId> kPairs[] = {{l0, l1}, {f0, l0}, {f0, f1}};
  const char* kIds[] = {"ll", "fl", "ff"};
  std::vector<std::string> bidir{"Bidirectional Bandwidth (GB/s)"};
  std::vector<std::string> unidir{"Unidirectional Bandwidth (GB/s)"};
  std::vector<std::string> latency{"P2P Write Latency (us)"};
  for (std::size_t i = 0; i < std::size(kPairs); ++i) {
    const auto m = fabric::measureP2p(sys.sim(), sys.network(), kPairs[i].first,
                                      kPairs[i].second);
    bidir.push_back(telemetry::fmt(units::to_GBps(m.bidirectional)));
    unidir.push_back(telemetry::fmt(units::to_GBps(m.unidirectional)));
    latency.push_back(telemetry::fmt(units::to_us(m.write_latency)));
    gate.check(claimId("table4.", kIds[i], "_bidir_gbs"), {units::to_GBps(m.bidirectional)});
    gate.check(claimId("table4.", kIds[i], "_latency_us"), {units::to_us(m.write_latency)});
  }
  telemetry::Table t({"", "L-L", "F-L", "F-F"});
  t.addRow(std::move(bidir));
  t.addRow(std::move(unidir));
  t.addRow(std::move(latency));
  t.addRow({"Link Protocol", "NVLink", "PCI-e 4.0", "PCI-e 4.0"});
  std::printf("%s\n", t.render().c_str());
  std::printf("Paper reference:\n");
  std::printf("  Bidirectional Bandwidth (GB/s)   72.37    19.64    24.47\n");
  std::printf("  P2P Write Latency (us)            1.85     2.66     2.08\n");
}

struct Probe {
  double latency_us = 0.0;
  double bandwidth_gbps = 0.0;  // gigabits/s to match the paper's units
};

/// A latency ping, then a bandwidth transfer: `send(ping, done)` starts one.
template <typename Send>
Probe probe(core::ComposableSystem& sys, Send send) {
  fabric::FlowResult ping, bulk;
  send(true, [&](const fabric::FlowResult& r) { ping = r; });
  sys.sim().run();
  send(false, [&](const fabric::FlowResult& r) { bulk = r; });
  sys.sim().run();
  return {units::to_us(ping.duration()), bulk.throughput() * 8.0 / 1e9};
}

// The paper cites a tier table (latency rising ~5-100x from CPU-CPU to
// CPU-disk); here each tier is measured on the simulated test bed.
void fig5(Runs, Gate& gate) {
  bench::banner("Fig 5", "Communications Requirements (measured on the model)");
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  const auto path = [&](fabric::NodeId a, fabric::NodeId b) {
    return probe(sys, [&](bool ping, auto done) {
      sys.network().startFlow(a, b, ping ? 0 : units::GiB(1), done);
    });
  };
  const auto mem = path(sys.hostRoot(), sys.hostMemory());
  const auto nvl = path(sys.localGpus()[0]->node(), sys.localGpus()[1]->node());
  const auto pcie = path(sys.falconGpus()[0]->node(), sys.falconGpus()[1]->node());
  const auto adapter = path(sys.hostRoot(), sys.chassis().drawerSwitch(0));
  // The disk probe goes through the device model so the media access
  // latency (NAND read + controller) is included, as a real fio ping is.
  const auto disk = probe(sys, [&](bool ping, auto done) {
    using devices::AccessPattern;
    sys.localNvme().read(ping ? units::KiB(4) : units::GiB(1), sys.hostMemory(),
                         ping ? AccessPattern::Random : AccessPattern::Sequential, done);
  });

  telemetry::Table t({"Communication", "Latency (us)", "Bandwidth (Gbps)", "Paper row"});
  const auto row = [&](const char* name, const Probe& p, const char* paper_row) {
    t.addRow({name, telemetry::fmt(p.latency_us), telemetry::fmt(p.bandwidth_gbps, 0),
              paper_row});
  };
  row("CPU - Memory (DDR bus)", mem, "CPU - Memory");
  row("GPU - GPU (NVLink)", nvl, "CPU - CPU class");
  row("GPU - GPU (PCIe switch)", pcie, "-");
  row("Host - Falcon drawer", adapter, "-");
  row("CPU - Disk (NVMe link)", disk, "CPU - Disk");
  std::printf("%s", t.render().c_str());

  const double ratio = disk.latency_us / mem.latency_us;
  std::printf("\nShape check (paper: latency rises ~5-100x from CPU tier to disk\n");
  std::printf("tier): memory-bus %.2f us -> disk-path %.2f us = %.0fx.\n",
              mem.latency_us, disk.latency_us, ratio);
  gate.check("fig5.disk_over_membus_latency", {ratio});
}

// Fig 6 (the evaluation topology) and Fig 7 (the NVLink hybrid cube mesh)
// as live views of the built system, plus the measured bandwidth matrix
// that evidences the mesh wiring.
void fig6_7(Runs, Gate&) {
  bench::banner("Fig 6 & 7", "Evaluation topology and NVLink hybrid cube mesh");
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  std::printf("Fig 6 — chassis topology view (host on H1 + H3, 4 GPUs per\n");
  std::printf("drawer, NVMe in drawer 2):\n\n%s\n",
              falcon::renderTopologyView(sys.chassis()).c_str());

  std::printf("Fig 7 — hybrid cube mesh edge list (GPU pairs x NVLink bricks):\n");
  for (const auto& e : fabric::hybridCubeMesh(8)) {
    std::printf("  GPU%d <-> GPU%d  x%d brick%s\n", e.a, e.b, e.bricks,
                e.bricks > 1 ? "s" : "");
  }
  std::printf("\nMeasured GPU-GPU unidirectional bandwidth matrix (GB/s):\n     ");
  std::vector<fabric::NodeId> nodes;
  for (const auto& g : sys.localGpus()) nodes.push_back(g->node());
  const auto m = fabric::bandwidthMatrix(sys.sim(), sys.network(), nodes, units::MiB(128));
  for (int j = 0; j < 8; ++j) std::printf("%6d", j);
  std::printf("\n");
  for (std::size_t i = 0; i < 8; ++i) {
    std::printf("  %zu |", i);
    for (std::size_t j = 0; j < 8; ++j) std::printf("%6.1f", m[i][j]);
    std::printf("\n");
  }
  std::printf("\n(36.2 = double-brick edge, 18.1 = single brick, values in\n");
  std::printf("between = two-hop NVLink paths — the cube-mesh signature.)\n");
}

// GPU-utilization patterns over whole (capped) training runs on localGPUs.
void fig9(Runs runs, Gate& gate) {
  bench::banner("Fig 9", "GPU Utilization Patterns for the DL Benchmarks");
  double top_vision = 0.0, bertl = 0.0;
  for (std::size_t k = 0; k < runs.plan.size(); ++k) {
    const Run& run = runs.plan[k];
    const auto& r = runs.results[k];
    // Plateau utilization: mean of the samples in the busy band (the
    // figure's visual plateau), excluding the checkpoint dips.
    const auto& series = r.metrics->series("gpu_util_pct");
    const double peak = series.stats().max;
    double plateau = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (series.valueAt(i) >= 0.5 * peak) {
        plateau += series.valueAt(i);
        ++n;
      }
    }
    if (n > 0) plateau /= n;
    if (run.model.domain != dl::Domain::NLP) top_vision = std::max(top_vision, plateau);
    if (run.model.name == "BERT-L") bertl = plateau;

    std::printf("%s  (%d epochs x %lld iters simulated, batch %d/GPU)\n",
                run.model.name.c_str(), r.training.epochs,
                static_cast<long long>(r.training.iterations_run /
                                       std::max(1, r.training.epochs)),
                run.model.paper_batch_per_gpu);
    std::printf("GPU utilization %% over the run (plateau mean %.1f%%):\n", plateau);
    std::printf("%s\n", telemetry::stripChart(series, 78, 8).c_str());
  }
  std::printf("Paper shape: high plateaus with periodic dips (synchronization +\n");
  std::printf("per-epoch checkpointing); BERT plateaus are the highest.\n");
  gate.check("fig9.bertl_minus_top_vision_plateau", {bertl - top_vision});
}

void fig10(Runs runs, Gate& gate) {
  bench::banner("Fig 10", "GPU Performance on the Composable Configurations");
  telemetry::Table t({"Benchmark", "Config", "GPU util %", "GPU mem util %", "Mem access %"});
  for (std::size_t k = 0; k < runs.plan.size(); k += 3) {
    std::vector<double> util;
    for (std::size_t c = k; c < k + 3; ++c) {
      const auto& r = runs.results[c];
      t.addRow({runs.plan[c].model.name, core::toString(runs.plan[c].config),
                telemetry::fmt(r.gpu_util_pct, 1), telemetry::fmt(r.gpu_mem_util_pct, 1),
                telemetry::fmt(r.gpu_mem_access_pct, 1)});
      util.push_back(r.gpu_util_pct);
    }
    gate.check(claimId("fig10.", runs.plan[k].model.name, "_gpu_util"), util);
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nPaper shape: all > 80%% GPU util; falcon configs slightly higher\n");
  std::printf("util and lower mem-access share; BERT highest memory pressure.\n");
}

/// Figs 11 and 15: each model's training-time change from the run set's
/// first configuration on its other two, printed as a table (`header`) and
/// a bar chart (`bar_a`, `bar_b` label the two); returns the changes.
std::vector<std::array<double, 2>> timeChange(Runs runs, std::vector<std::string> header,
                                              const char* bar_a, const char* bar_b) {
  telemetry::Table t(std::move(header));
  std::vector<std::pair<std::string, double>> bars;
  std::vector<std::array<double, 2>> changes;
  for (std::size_t k = 0; k < runs.plan.size(); k += 3) {
    const auto& name = runs.plan[k].model.name;
    const auto& base = runs.results[k];
    const double a = core::Experiment::trainingTimeChangePct(runs.results[k + 1], base);
    const double b = core::Experiment::trainingTimeChangePct(runs.results[k + 2], base);
    t.addRow({name, telemetry::fmt(base.training.extrapolated_total_time, 1),
              telemetry::fmt(a, 2), telemetry::fmt(b, 2)});
    bars.emplace_back(name + " " + bar_a, a);
    bars.emplace_back(name + " " + bar_b, b);
    changes.push_back({a, b});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n", telemetry::barChart(bars, "%").c_str());
  return changes;
}

void fig11(Runs runs, Gate& gate) {
  bench::banner("Fig 11", "Percentage Change of Training Time vs localGPUs");
  const auto changes = timeChange(
      runs, {"Benchmark", "localGPUs (s, extrapolated)", "hybridGPUs %", "falconGPUs %"},
      "hybrid", "falcon");
  std::printf("Paper shape: vision < 7%% (MobileNet/ResNet < 5%%); BERT-large ~2x\n");
  std::printf("on falconGPUs; overhead grows with parameter count.\n");
  for (std::size_t m = 0; m < changes.size(); ++m) {
    const auto& model = runs.plan[m * 3].model;
    const auto [hybrid, falcon] = changes[m];
    if (model.domain != dl::Domain::NLP) {
      gate.check(claimId("fig11.", model.name, "_slowdown"), {hybrid, falcon});
    } else if (model.name == "BERT-L") {
      gate.check("fig11.bertl_falcon_over_local", {1.0 + falcon / 100.0});
    }
  }
}

void fig12(Runs runs, Gate& gate) {
  bench::banner("Fig 12", "PCIe Data Transfer Rate for Falcon-attached GPUs");
  telemetry::Table t({"Benchmark", "hybridGPUs GB/s", "falconGPUs GB/s"});
  std::vector<std::pair<std::string, double>> bars;
  for (std::size_t k = 0; k < runs.plan.size(); k += 3) {
    const auto& name = runs.plan[k].model.name;
    const double falcon = runs.results[k + 2].falcon_pcie_gbs;
    t.addRow({name, telemetry::fmt(runs.results[k + 1].falcon_pcie_gbs),
              telemetry::fmt(falcon)});
    bars.emplace_back(name + " falcon", falcon);
    if (name == "MobileNetV2" || name == "ResNet-50" || name == "BERT-L") {
      gate.check(claimId("fig12.", name, "_falcon_gbs"), {falcon});
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n", telemetry::barChart(bars, "GB/s").c_str());
  std::printf("Paper reference (falconGPUs): MobileNetV2 ~4, ResNet-50 11.31,\n");
  std::printf("BERT-large 76.43 GB/s.\n");
}

/// Figs 13 and 14: one row per model of `metric` on each configuration.
std::string perConfig(Runs runs, double core::ExperimentResult::*metric, int decimals) {
  telemetry::Table t({"Benchmark", "localGPUs %", "hybridGPUs %", "falconGPUs %"});
  for (std::size_t k = 0; k < runs.plan.size(); k += 3) {
    std::vector<std::string> row{runs.plan[k].model.name};
    for (std::size_t c = k; c < k + 3; ++c) {
      row.push_back(telemetry::fmt(runs.results[c].*metric, decimals));
    }
    t.addRow(std::move(row));
  }
  return t.render();
}

void fig13(Runs runs, Gate& gate) {
  bench::banner("Fig 13", "CPU Utilization of the DL Benchmarks");
  std::vector<std::pair<std::string, double>> bars;
  double vision_low = 100.0, nlp_high = 0.0;
  for (std::size_t c = 0; c < runs.plan.size(); ++c) {
    const auto& model = runs.plan[c].model;
    const double cpu = runs.results[c].cpu_util_pct;
    if (c % 3 == 0) bars.emplace_back(model.name, cpu);  // localGPUs
    if (model.domain == dl::Domain::NLP) {
      nlp_high = std::max(nlp_high, cpu);
    } else {
      vision_low = std::min(vision_low, cpu);
    }
  }
  std::printf("%s\n", perConfig(runs, &core::ExperimentResult::cpu_util_pct, 1).c_str());
  std::printf("%s\n", telemetry::barChart(bars, "% (localGPUs)").c_str());
  std::printf("Paper shape: vision >> NLP (preprocessing on CPU); all far from\n");
  std::printf("saturating the 2x Xeon 6148 (80 hardware threads).\n");
  gate.check("fig13.vision_minus_nlp_cpu", {vision_low - nlp_high});
}

void fig14(Runs runs, Gate& gate) {
  bench::banner("Fig 14", "System Memory Utilization of the DL Benchmarks");
  std::printf("%s\n", perConfig(runs, &core::ExperimentResult::host_mem_util_pct, 2).c_str());
  std::printf("Paper shape: single-digit utilization of the 756 GB hosts; vision\n");
  std::printf("slightly above NLP (batch staging); insensitive to configuration.\n");
  std::vector<double> util;
  for (const auto& r : runs.results) util.push_back(r.host_mem_util_pct);
  gate.check("fig14.host_mem_util", util);
}

// All three storage configurations train on the 8 local GPUs; only the
// dataset's path differs.
void fig15(Runs runs, Gate& gate) {
  bench::banner("Fig 15", "Training-Time Change vs localGPUs (storage study)");
  const auto changes = timeChange(
      runs, {"Benchmark", "localGPUs (s)", "localNVMe %", "falconNVMe %"}, "localNVMe",
      "falconNVMe");
  std::printf("Paper shape: NVMe accelerates the data-hungry models (YOLO's\n");
  std::printf("mosaic reads, BERT's checkpoints); falconNVMe ~= localNVMe.\n");
  double gap = 0.0;
  for (std::size_t m = 0; m < changes.size(); ++m) {
    const auto& name = runs.plan[m * 3].model.name;
    const auto [local, falcon] = changes[m];
    gap = std::max(gap, std::abs(falcon - local));
    if (name == "YOLOv5-L" || name == "BERT" || name == "BERT-L") {
      gate.check(claimId("fig15.", name, "_nvme_change"), {local, falcon});
    }
  }
  gate.check("fig15.falcon_minus_local_nvme", {gap});
}

void fig16(Runs runs, Gate& gate) {
  bench::banner("Fig 16", "Software-level DL Optimizations on BERT-large");
  const std::size_t n = std::size(kFig16Variants);
  std::vector<double> batch[n];  // per variant, over both configurations
  std::vector<double> fp16_cut;
  for (std::size_t k = 0; k < runs.plan.size(); k += n) {
    std::printf("--- %s ---\n", core::toString(runs.plan[k].config));
    telemetry::Table t({"Variant", "batch/GPU", "samples/s", "iter time",
                        "speedup vs DP+FP32 %"});
    const auto& baseline = runs.results[k].training;
    for (std::size_t v = 0; v < n; ++v) {
      const int b = runs.plan[k + v].opt.trainer.batch_per_gpu;
      const auto& r = runs.results[k + v].training;
      const double speedup = 100.0 * (r.samples_per_second - baseline.samples_per_second) /
                             baseline.samples_per_second;
      t.addRow({kFig16Variants[v].label, std::to_string(b),
                telemetry::fmt(r.samples_per_second, 1), formatTime(r.mean_iteration_time),
                telemetry::fmt(speedup, 1)});
      batch[v].push_back(b);
    }
    std::printf("%s\n", t.render().c_str());
    fp16_cut.push_back(100.0 * (1.0 - runs.results[k + 1].training.mean_iteration_time /
                                          baseline.mean_iteration_time));
  }
  std::printf("Paper shape: FP16 > 50%% gain (more than 70%% on falcon); DDP adds\n");
  std::printf("a large further gain; sharding lifts batch 6 -> 10 and throughput.\n");
  batch[1].insert(batch[1].end(), batch[2].begin(), batch[2].end());
  gate.check("fig16.batch_fp32", batch[0]);
  gate.check("fig16.batch_fp16", batch[1]);
  gate.check("fig16.batch_sharded", batch[3]);
  gate.check("fig16.fp16_iteration_cut", fp16_cut);
  gate.check("fig16.fp16_iteration_cut_falcon", {fp16_cut.back()});
}

// DESIGN.md section 7's ablations that carry a claim: DDP bucket count on
// BERT-L/falconGPUs, then prefetch depth on the storage-bound YOLOv5-L.
constexpr int kBuckets[] = {1, 2, 6, 12};
constexpr int kPrefetchDepths[] = {1, 2, 4, 8};

std::vector<Run> ablationRuns() {
  std::vector<Run> runs;
  for (const int buckets : kBuckets) {
    core::ExperimentOptions opt;
    opt.trainer.max_iterations_per_epoch = 8;
    opt.trainer.epochs = 1;
    opt.trainer.gradient_buckets = buckets;
    runs.push_back({core::SystemConfig::FalconGpus, dl::workload("BERT-L"), opt});
  }
  for (const int depth : kPrefetchDepths) {
    core::ExperimentOptions opt;
    opt.trainer.max_iterations_per_epoch = 10;
    opt.trainer.epochs = 1;
    opt.trainer.pipeline.prefetch_batches = depth;
    runs.push_back({core::SystemConfig::LocalGpus, dl::workload("YOLOv5-L"), opt});
  }
  return runs;
}

/// One all-reduce of `size` over `config`'s training GPUs on a fresh
/// system, so its time does not depend on what ran before it.
collectives::CollectiveResult allReduceOn(core::SystemConfig config, Bytes size,
                                          collectives::Algorithm algorithm) {
  core::ComposableSystem sys(config);
  std::vector<fabric::NodeId> ranks;
  for (auto* g : sys.trainingGpus()) ranks.push_back(g->node());
  collectives::Communicator comm(sys.sim(), sys.network(), sys.topology(), ranks);
  collectives::CollectiveResult result;
  comm.allReduce(size, [&](const collectives::CollectiveResult& r) { result = r; }, algorithm);
  sys.sim().run();
  return result;
}

void extAblation(Runs runs, Gate& gate) {
  bench::banner("Ext: ablations", "Design-choice studies (DESIGN.md section 7)");
  std::printf("--- Collective algorithm x fabric (256 MiB) ---\n");
  using collectives::Algorithm;
  telemetry::Table t({"Fabric", "ring", "tree", "hierarchical", "auto"});
  std::vector<double> auto_over_fastest;
  for (const auto config : core::gpuConfigs()) {
    std::vector<std::string> row{core::toString(config)};
    double fastest = std::numeric_limits<double>::infinity();
    for (const auto algorithm :
         {Algorithm::Ring, Algorithm::Tree, Algorithm::Hierarchical, Algorithm::Auto}) {
      const SimTime d = allReduceOn(config, units::MiB(256), algorithm).duration();
      row.push_back(formatTime(d));
      if (algorithm == Algorithm::Auto) {
        auto_over_fastest.push_back(d / fastest);
      } else {
        fastest = std::min(fastest, d);
      }
    }
    t.addRow(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("--- DDP gradient buckets, BERT-large on falconGPUs ---\n");
  const std::size_t n = std::size(kBuckets);
  for (std::size_t k = 0; k < n; ++k) {
    std::printf("  %2d bucket(s): iteration %s\n", kBuckets[k],
                formatTime(runs.results[k].training.mean_iteration_time).c_str());
  }
  std::printf("  (one bucket = zero overlap with backward; more buckets let the\n");
  std::printf("   all-reduce start while backward still runs)\n\n");

  std::printf("--- Pipeline prefetch depth, YOLOv5-L on localGPUs ---\n");
  for (std::size_t k = 0; k < std::size(kPrefetchDepths); ++k) {
    const auto& r = runs.results[n + k].training;
    std::printf("  depth %d: iteration %s, data stall %s\n", kPrefetchDepths[k],
                formatTime(r.mean_iteration_time).c_str(),
                formatTime(r.data_stall_time).c_str());
  }
  std::printf("\n");
  const auto iteration = [&](std::size_t k) {
    return runs.results[k].training.mean_iteration_time;
  };
  gate.check("ext_ablation.buckets6_over_1", {iteration(2) / iteration(0)});
  gate.check("ext_ablation.prefetch2_over_1", {iteration(n + 1) / iteration(n)});
  gate.check("ext_ablation.auto_over_fastest", auto_over_fastest);
}

/// Trains `model` for one epoch of `iterations` on `gpus` of `sys`, stepping
/// until the trainer finishes: a co-tenant's traffic may never drain.
dl::TrainingResult trainOn(core::ComposableSystem& sys, std::vector<devices::Gpu*> gpus,
                           const dl::ModelSpec& model, int iterations) {
  dl::TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = iterations;
  dl::Trainer t(sys.sim(), sys.network(), sys.topology(), std::move(gpus), sys.cpu(),
                sys.hostMemory(), sys.trainingStorage(), model, dl::datasetFor(model), opt);
  std::optional<dl::TrainingResult> result;
  t.start([&](const dl::TrainingResult& r) { result = r; });
  while (!result && sys.sim().step()) {
  }
  return result.value_or(dl::TrainingResult{});
}

// Throughput against GPU count past the fixed server's eight sockets: 2, 4
// and 8 local GPUs, then 12 and 16 composed from local + Falcon-attached.
void extScaling(Runs, Gate& gate) {
  bench::banner("Ext: scaling", "Throughput vs GPU count, composing past the 8-GPU host");
  constexpr int kCounts[] = {2, 4, 8, 12, 16};
  for (const char* name : {"ResNet-50", "BERT-L"}) {
    const auto model = dl::workload(name);
    std::printf("%s (samples/s, and efficiency vs perfect scaling from 2):\n", name);
    std::vector<std::pair<std::string, double>> bars;
    double base = 0.0, eight = 0.0, efficiency = 0.0;
    for (const int n : kCounts) {
      core::ComposableSystem sys(core::SystemConfig::AllGpus16);
      auto gpus = sys.trainingGpus();  // 8 local then 8 falcon
      gpus.resize(static_cast<std::size_t>(n));
      const auto r = trainOn(sys, std::move(gpus), model, 10);
      const double sps = r.completed ? r.samples_per_second : 0.0;
      if (n == 2) base = sps;
      if (n == 8) eight = sps;
      efficiency = 100.0 * sps / (base / 2.0 * n);
      char label[64];
      std::snprintf(label, sizeof(label), "%2d GPUs (%s)", n, n <= 8 ? "local" : "local+falcon");
      bars.emplace_back(label, sps);
      std::printf("  %-24s %8.0f samples/s   scaling efficiency %5.1f %%\n", label, sps,
                  efficiency);
    }
    std::printf("%s\n", telemetry::barChart(bars, "samples/s").c_str());
    gate.check(claimId("ext_scaling.", name, "_efficiency16"), {efficiency});
    if (model.name == "BERT-L") {
      gate.check("ext_scaling.bertl_16_over_8_gpus", {bars.back().second / eight});
    }
  }
  std::printf("Shape: the composable fabric lets one host drive 16 GPUs; the\n");
  std::printf("vision model scales near-linearly, BERT-large pays the PCIe tax\n");
  std::printf("beyond 8 but still gains absolute throughput.\n");
}

/// The links of every route between two of `nodes`, both directions.
std::set<fabric::LinkId> routeLinks(const fabric::Topology& topo,
                                    const std::vector<fabric::NodeId>& nodes) {
  std::set<fabric::LinkId> links;
  for (const fabric::NodeId a : nodes) {
    for (const fabric::NodeId b : nodes) {
      if (a == b) continue;
      if (const auto& route = topo.routeCached(a, b)) {
        links.insert(route->links.begin(), route->links.end());
      }
    }
  }
  return links;
}

struct Tenancy {
  SimTime iteration = 0.0;   // tenant A's mean BERT-L iteration
  std::size_t shared_links = 0;  // on both a tenant-A and a tenant-B route
};

/// Tenant A's BERT-L iteration on the hybridGPUs GPUs (4 local + 4 in
/// drawer 0, host port H1). With `storm`, tenant B, on a second host behind
/// port H4, drives an endless all-reduce over the four drawer-1 GPUs, and
/// the links the two tenants' routes share are counted: routes between
/// tenant A's GPUs and host memory against routes between tenant B's.
Tenancy tenantA(bool storm) {
  core::ComposableSystem sys(core::SystemConfig::HybridGpus);
  const auto gpus = sys.trainingGpus();
  Tenancy out;
  std::unique_ptr<collectives::Communicator> tenant_b;
  std::function<void()> allReduceForever;
  if (storm) {
    const fabric::NodeId memory_b = sys.attachSecondHost().memory;
    sys.chassis().setDrawerMode(1, falcon::DrawerMode::Advanced);
    std::vector<fabric::NodeId> ranks;
    for (int i = 0; i < 4; ++i) {
      sys.chassis().attach({1, i}, 3);
      ranks.push_back(sys.falconGpus()[static_cast<std::size_t>(4 + i)]->node());
    }
    std::vector<fabric::NodeId> nodes_a{sys.hostMemory()};
    for (const devices::Gpu* g : gpus) nodes_a.push_back(g->node());
    std::vector<fabric::NodeId> nodes_b = ranks;
    nodes_b.push_back(memory_b);
    const auto links_a = routeLinks(sys.topology(), nodes_a);
    for (const fabric::LinkId l : routeLinks(sys.topology(), nodes_b)) {
      out.shared_links += links_a.count(l);
    }
    tenant_b = std::make_unique<collectives::Communicator>(sys.sim(), sys.network(),
                                                           sys.topology(), ranks);
    allReduceForever = [&] {
      tenant_b->allReduce(units::MiB(256),
                          [&](const collectives::CollectiveResult&) { allReduceForever(); });
    };
    allReduceForever();
  }
  out.iteration = trainOn(sys, gpus, dl::workload("BERT-L"), 8).mean_iteration_time;
  return out;
}

// Advanced mode (paper §VI): two tenants share the Falcon, each behind its
// own host port, so tenant A's bandwidth is isolated by construction.
void extCotenancy(Runs, Gate& gate) {
  bench::banner("Ext: co-tenancy", "Advanced mode: two tenants sharing the Falcon 4016");
  const double alone = tenantA(false).iteration;
  const Tenancy storm = tenantA(true);
  const double contended = storm.iteration;
  const double interference = 100.0 * (contended - alone) / alone;
  std::printf("Tenant A BERT-large iteration, drawer-1 tenant idle   : %s\n",
              formatTime(alone).c_str());
  std::printf("Tenant A BERT-large iteration, drawer-1 tenant storming: %s\n",
              formatTime(contended).c_str());
  std::printf("Interference: %+.2f %%\n\n", interference);
  std::printf("Finding: the Falcon's per-port fabric gives tenants disjoint\n");
  std::printf("bandwidth domains — performance isolation holds by construction\n");
  std::printf("(the enterprise-isolation claim of paper §II-D, measured).\n");
  gate.check("ext_cotenancy.interference", {interference});
  // Interference reads 0 unless a shared link saturates; sharing itself
  // is what isolation rules out.
  gate.check("ext_cotenancy.shared_links", {static_cast<double>(storm.shared_links)});
}

// Data-parallel ResNet-50 over a heterogeneous composed pool (paper §VI:
// "other accelerators"): 4 local V100s plus 4 Falcon-attached P100s in
// drawer-0 slots 4-7, against 8 and 4 V100s alone. Synchronous DDP runs at
// the pace of the slowest replica, so the mixed pool lands below even the
// four V100s on their own.
void extHeterogeneous(Runs, Gate& gate) {
  bench::banner("Ext: heterogeneous pool",
                "4x V100 + 4x composed P100 vs homogeneous pools (ResNet-50)");
  const auto model = dl::workload("ResNet-50");
  const auto v100s = [&](std::size_t n) {
    core::ComposableSystem sys(core::SystemConfig::LocalGpus);
    auto gpus = sys.trainingGpus();
    gpus.resize(n);
    return trainOn(sys, std::move(gpus), model, 8).samples_per_second;
  };
  const double v100x8 = v100s(8);
  const double v100x4 = v100s(4);

  core::ComposableSystem sys(core::SystemConfig::LocalGpus);
  auto& chassis = sys.chassis();
  chassis.setDrawerMode(0, falcon::DrawerMode::Advanced);
  std::vector<std::unique_ptr<devices::Gpu>> p100s;
  auto mixed = sys.trainingGpus();
  mixed.resize(4);
  for (int s = 4; s < 8; ++s) {  // slots 0-3 hold the stock V100s
    const std::string name = "gpu.p100.d0s" + std::to_string(s);
    const fabric::NodeId node = sys.topology().addNode(name, fabric::NodeKind::Gpu);
    chassis.installDevice({0, s}, falcon::DeviceType::Gpu, name, node);
    chassis.attach({0, s}, 0);
    p100s.push_back(
        std::make_unique<devices::Gpu>(sys.sim(), node, devices::specs::p100_pcie(), name));
    mixed.push_back(p100s.back().get());
  }
  const double mixed_sps = trainOn(sys, std::move(mixed), model, 8).samples_per_second;

  telemetry::Table t({"Pool", "samples/s", "vs 8x V100 %"});
  t.addRow({"8x V100 (local)", telemetry::fmt(v100x8, 0), "100.0"});
  t.addRow({"4x V100 + 4x P100 (composed)", telemetry::fmt(mixed_sps, 0),
            telemetry::fmt(100.0 * mixed_sps / v100x8, 1)});
  t.addRow({"4x V100 (local)", telemetry::fmt(v100x4, 0),
            telemetry::fmt(100.0 * v100x4 / v100x8, 1)});
  std::printf("%s\n", t.render().c_str());
  std::printf("Shape: synchronous DDP paces at the slowest replica — the P100s\n");
  std::printf("drag the mixed pool below 4x V100 alone. The composable answer:\n");
  std::printf("detach them and re-compose, no screwdriver required.\n");
  gate.check("ext_heterogeneous.mixed_vs_8xv100", {100.0 * mixed_sps / v100x8});
  gate.check("ext_heterogeneous.mixed_over_4xv100", {mixed_sps / v100x4});
}

// nccl-tests-style all-reduce size sweep, 1 MiB to 1 GiB, per fabric: why
// BERT-large (670 MB of gradients) feels the fabric and MobileNetV2 (7 MB)
// does not.
void extNccl(Runs, Gate& gate) {
  bench::banner("Ext: NCCL sweep", "all-reduce size sweep across the fabrics");
  std::vector<double> busbw_1gib;  // per fabric, gpuConfigs() order
  for (const auto config : core::gpuConfigs()) {
    std::printf("--- %s (8 ranks, ring/auto) ---\n", core::toString(config));
    std::printf("  %10s %12s %10s %10s\n", "size", "time", "algbw", "busbw");
    for (Bytes size = units::MiB(1); size <= units::GiB(1); size *= 4) {
      const auto r = allReduceOn(config, size, collectives::Algorithm::Auto);
      std::printf("  %10s %12s %7.2f GB/s %7.2f GB/s\n", formatBytes(size).c_str(),
                  formatTime(r.duration()).c_str(),
                  units::to_GBps(static_cast<double>(size) / r.duration()),
                  units::to_GBps(r.busBandwidth(8)));
      if (size == units::GiB(1)) busbw_1gib.push_back(r.busBandwidth(8));
    }
    std::printf("\n");
  }
  const double nvlink_over_falcon = busbw_1gib[0] / busbw_1gib[2];
  std::printf("Shape: busbw saturates at the protocol-derated fabric rate —\n");
  std::printf("NVLink %.1fx the Falcon fabric at 1 GiB — and small messages are\n",
              nvlink_over_falcon);
  std::printf("latency-bound everywhere (the 14-step ring handshake).\n");
  gate.check("ext_nccl.nvlink_over_falcon_busbw", {nvlink_over_falcon});
}

using Plan = std::vector<Run> (*)();

struct Artifact {
  std::string_view name;
  Plan plan;  // the training runs it reads; null for none
  void (*print)(Runs, Gate&);
};

constexpr Artifact kArtifacts[] = {
    {"table1", nullptr, table1},  {"table2", nullptr, table2},
    {"table3", nullptr, table3},  {"table4", nullptr, table4},
    {"fig5", nullptr, fig5},      {"fig6_7", nullptr, fig6_7},
    {"fig9", fig9Runs, fig9},     {"fig10", figureRuns, fig10},
    {"fig11", fig11Runs, fig11},  {"fig12", figureRuns, fig12},
    {"fig13", figureRuns, fig13}, {"fig14", figureRuns, fig14},
    {"fig15", fig15Runs, fig15},  {"fig16", fig16Runs, fig16},
    {"ext_ablation", ablationRuns, extAblation},
    {"ext_scaling", nullptr, extScaling},
    {"ext_cotenancy", nullptr, extCotenancy},
    {"ext_heterogeneous", nullptr, extHeterogeneous},
    {"ext_nccl", nullptr, extNccl},
};

}  // namespace

int main(int argc, char** argv) {
  std::string usage = "[--jobs N] [artifact...]\nartifacts:";
  for (const auto& a : kArtifacts) usage.append(" ").append(a.name);
  const int jobs = bench::jobsFromArgs(argc, argv, usage);

  std::vector<const Artifact*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs") {
      ++i;
      continue;
    }
    const Artifact* a = std::find_if(std::begin(kArtifacts), std::end(kArtifacts),
                                     [&](const Artifact& x) { return x.name == arg; });
    if (a == std::end(kArtifacts)) {
      bench::usageError(argv[0], usage,
                        std::string("unknown artifact '").append(arg).append("'"));
    }
    selected.push_back(a);
  }
  if (selected.empty()) {
    for (const auto& a : kArtifacts) selected.push_back(&a);
  }

  // Plan each run set the selection reads once (sets: its first run and
  // run count; the null plan reads none), then run every set in one
  // ordered sweep.
  std::vector<Run> plan;
  std::map<Plan, std::pair<std::size_t, std::size_t>> sets;
  for (const auto* a : selected) {
    if (a->plan == nullptr || sets.count(a->plan) > 0) continue;
    const auto runs = a->plan();
    sets[a->plan] = {plan.size(), runs.size()};
    plan.insert(plan.end(), runs.begin(), runs.end());
  }
  const auto results = core::sweepOrdered(jobs, plan.size(), [&](std::size_t i) {
    return core::Experiment::run(plan[i].config, plan[i].model, plan[i].opt);
  });

  Gate gate;
  std::vector<std::string_view> printed;
  for (const auto* a : selected) {
    const auto [first, count] = sets[a->plan];
    a->print({std::span(plan).subspan(first, count),
              std::span(results).subspan(first, count)},
             gate);
    printed.push_back(a->name);
  }
  std::fflush(stdout);
  return gate.finish(printed);
}
