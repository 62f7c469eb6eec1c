#include "dl/workload_registry.hpp"

#include <stdexcept>
#include <utility>

#include "dl/graph_ir/builders.hpp"
#include "dl/graph_ir/lowering.hpp"
#include "dl/graph_ir/loader.hpp"

namespace composim::dl {

namespace {

/// Factory adapter: lower a built-in graph, which cannot fail (the
/// builders are validated by construction and covered by tests).
template <graph_ir::Graph (*Builder)()>
ModelSpec lowered() {
  ModelSpec m;
  if (const Status s = graph_ir::lower(Builder(), &m); !s) {
    throw std::logic_error("built-in workload failed to lower: " +
                           s.toString());
  }
  return m;
}

DatasetSpec imagenet() {
  DatasetSpec d;
  d.name = "ImageNet";
  d.train_samples = 1281167;
  d.disk_bytes_per_sample = units::KB(110);
  d.read_amplification = 1.0;
  d.uncached_read_fraction = 0.05;  // 756 GB hosts keep ImageNet warm
  d.cpu_preprocess_per_sample = units::milliseconds(2.5);  // decode + augment
  d.device_bytes_per_sample = 3LL * 224 * 224 * 2;
  return d;
}

DatasetSpec coco() {
  DatasetSpec d;
  d.name = "Coco";
  d.train_samples = 118287;
  d.disk_bytes_per_sample = units::KB(163);
  d.read_amplification = 4.0;  // YOLOv5 mosaic loads 4 images per sample
  d.uncached_read_fraction = 1.0;  // amplified random reads defeat caching
  // Mosaic + letterbox + HSV augmentation over four source images.
  d.cpu_preprocess_per_sample = units::milliseconds(20.0);
  d.device_bytes_per_sample = 3LL * 640 * 640 * 2;
  return d;
}

DatasetSpec squadV11() {
  DatasetSpec d;
  d.name = "SQuAD v1.1";
  d.train_samples = 88608;  // tokenized features from the 87.6k questions
  d.disk_bytes_per_sample = units::KB(2.5);
  d.read_amplification = 1.0;
  d.uncached_read_fraction = 0.02;  // tokenized features, fully cached
  d.cpu_preprocess_per_sample = units::milliseconds(0.05);
  d.device_bytes_per_sample = 3LL * 384 * 4;
  return d;
}

}  // namespace

WorkloadRegistry::WorkloadRegistry() {
  datasets_.push_back(imagenet());
  datasets_.push_back(coco());
  datasets_.push_back(squadV11());

  const auto builtin = [this](std::string name, std::string dataset,
                              std::string description, bool paper,
                              std::function<ModelSpec()> factory) {
    entries_.push_back({std::move(name), std::move(dataset),
                        std::move(description), paper, std::move(factory)});
  };
  builtin("MobileNetV2", "ImageNet", "Table II: 3.4M-param CV benchmark",
          true, lowered<graph_ir::builders::mobilenetV2>);
  builtin("ResNet-50", "ImageNet", "Table II: 25.6M-param CV benchmark",
          true, lowered<graph_ir::builders::resnet50>);
  builtin("YOLOv5-L", "Coco", "Table II: 47M-param detection benchmark",
          true, lowered<graph_ir::builders::yolov5L>);
  builtin("BERT", "SQuAD v1.1", "Table II: 110M-param NLP benchmark", true,
          lowered<graph_ir::builders::bertBase>);
  builtin("BERT-L", "SQuAD v1.1", "Table II: 340M-param NLP benchmark", true,
          lowered<graph_ir::builders::bertLarge>);
  builtin("GPT-2-medium", "SQuAD v1.1",
          "extension: 355M-param decoder transformer", false,
          lowered<graph_ir::builders::gpt2Medium>);
  builtin("ViT-B/16", "ImageNet", "extension: 86M-param vision transformer",
          false, lowered<graph_ir::builders::vitBase16>);
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry registry;
  return registry;
}

Status WorkloadRegistry::add(Entry entry) {
  if (entry.name.empty() || !entry.factory) {
    return Status::invalidArgument(
        "workload entries need a name and a factory");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.name == entry.name) {
      return Status::alreadyExists("workload '" + entry.name +
                                   "' is already registered");
    }
  }
  entries_.push_back(std::move(entry));
  return Status::success();
}

Status WorkloadRegistry::model(const std::string& name, ModelSpec* out) const {
  std::function<ModelSpec()> factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.name == name) {
        factory = e.factory;
        break;
      }
    }
  }
  if (!factory) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::notFound("unknown workload '" + name + "' (known: " +
                           known + "; or use graph:<path>)");
  }
  *out = factory();  // outside the lock: factories may be arbitrary code
  return Status::success();
}

bool WorkloadRegistry::hasWorkload(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

std::vector<ModelSpec> WorkloadRegistry::paperZoo() const {
  std::vector<std::function<ModelSpec()>> factories;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      if (e.paper_benchmark) factories.push_back(e.factory);
    }
  }
  std::vector<ModelSpec> zoo;
  zoo.reserve(factories.size());
  for (const auto& f : factories) zoo.push_back(f());
  return zoo;
}

Status WorkloadRegistry::addDataset(DatasetSpec spec) {
  if (spec.name.empty()) {
    return Status::invalidArgument("datasets need a name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const DatasetSpec& d : datasets_) {
    if (d.name == spec.name) {
      return Status::alreadyExists("dataset '" + spec.name +
                                   "' is already registered");
    }
  }
  datasets_.push_back(std::move(spec));
  return Status::success();
}

Status WorkloadRegistry::dataset(const std::string& name,
                                 DatasetSpec* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const DatasetSpec& d : datasets_) {
    if (d.name == name) {
      *out = d;
      return Status::success();
    }
  }
  return Status::notFound("unknown dataset '" + name +
                          "' (register it or define it inline in the graph)");
}

std::vector<std::string> WorkloadRegistry::datasetNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(datasets_.size());
  for (const DatasetSpec& d : datasets_) out.push_back(d.name);
  return out;
}

Status WorkloadRegistry::loadGraph(const std::string& path, ModelSpec* out) {
  graph_ir::Graph graph;
  if (Status s = graph_ir::loadGraphFile(path, &graph); !s) return s;
  ModelSpec m;
  if (Status s = graph_ir::lower(graph, &m); !s) return s;
  if (graph.inline_dataset) {
    // First registration wins; re-loading the same graph is a no-op.
    DatasetSpec existing;
    if (!dataset(graph.inline_dataset->name, &existing)) {
      if (Status s = addDataset(*graph.inline_dataset); !s) return s;
    }
  }
  DatasetSpec resolved;
  if (Status s = dataset(m.dataset, &resolved); !s) {
    s.detail = "graph '" + m.name + "': " + s.detail;
    return s;
  }
  *out = std::move(m);
  return Status::success();
}

Status WorkloadRegistry::resolve(const std::string& workload, ModelSpec* out) {
  constexpr const char* kGraphPrefix = "graph:";
  if (workload.rfind(kGraphPrefix, 0) == 0) {
    return loadGraph(workload.substr(6), out);
  }
  return model(workload, out);
}

ModelSpec workload(const std::string& ref) {
  ModelSpec m;
  if (const Status s = WorkloadRegistry::instance().resolve(ref, &m); !s) {
    throw std::invalid_argument(s.toString());
  }
  return m;
}

DatasetSpec datasetFor(const ModelSpec& model) {
  DatasetSpec d;
  if (const Status s = WorkloadRegistry::instance().dataset(model.dataset, &d);
      !s) {
    throw std::invalid_argument("datasetFor: " + s.detail);
  }
  return d;
}

}  // namespace composim::dl
