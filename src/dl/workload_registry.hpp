// composim: the workload registry — name -> ModelSpec factory.
//
// The single front door for workload selection: the seven built-in models
// (Table II's five plus GPT-2-medium and ViT-B/16) are registered at
// startup as lowered graph-IR builders, experiments look models up by
// name (core::ExperimentOptions::workload), and new workloads arrive
// either programmatically (add) or as operator-graph JSON files
// ("graph:<path>", see dl/graph_ir/). Dataset association lives here too:
// each entry names its dataset, datasets are registered by name, and a
// graph file may carry its dataset inline — so a JSON-only workload
// trains end to end without touching C++.
//
// Table II itself is paperZoo() (paper order); datasetFor() maps a model
// to the dataset it trains on.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dl/dataset.hpp"
#include "dl/model.hpp"

namespace composim::dl {

class WorkloadRegistry {
 public:
  struct Entry {
    std::string name;         // unique lookup key (== factory's model name)
    std::string dataset;      // dataset registry key the workload trains on
    std::string description;  // one line for listings
    bool paper_benchmark = false;  // member of Table II (paperZoo order)
    std::function<ModelSpec()> factory;
  };

  /// Process-wide registry with the built-ins pre-registered.
  static WorkloadRegistry& instance();

  /// Register a workload; AlreadyExists when the name is taken,
  /// InvalidArgument on a nameless entry or null factory.
  Status add(Entry entry);

  /// Build the named workload's ModelSpec; NotFound (listing the known
  /// names) when absent.
  Status model(const std::string& name, ModelSpec* out) const;

  bool hasWorkload(const std::string& name) const;

  /// Registered workload names, registration order.
  std::vector<std::string> names() const;

  /// The five Table II benchmarks, paper order.
  std::vector<ModelSpec> paperZoo() const;

  /// Register a dataset; AlreadyExists when the name is taken.
  Status addDataset(DatasetSpec spec);

  /// Look a dataset up by name (the ModelSpec::dataset key); NotFound
  /// when absent.
  Status dataset(const std::string& name, DatasetSpec* out) const;

  std::vector<std::string> datasetNames() const;

  /// Load a ".graph.json" operator-graph workload: read, validate, lower
  /// (see dl/graph_ir/loader.hpp for the error taxonomy). A dataset
  /// carried inline by the graph is registered on first sight; the
  /// model's dataset reference must resolve afterwards (NotFound
  /// otherwise). The workload itself is not registered by name — load it
  /// again (cheap) or add() an entry to pin it.
  Status loadGraph(const std::string& path, ModelSpec* out);

  /// Resolve a workload reference: a registry name, or "graph:<path>"
  /// for an operator-graph file.
  Status resolve(const std::string& workload, ModelSpec* out);

 private:
  WorkloadRegistry();

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<DatasetSpec> datasets_;
};

/// Convenience: WorkloadRegistry::instance().resolve(ref) that throws
/// std::invalid_argument on failure — the pre-registry ergonomics for
/// examples, benches and tests.
ModelSpec workload(const std::string& ref);

/// The dataset `model` trains on (registry lookup by ModelSpec::dataset);
/// throws std::invalid_argument for an unregistered dataset.
DatasetSpec datasetFor(const ModelSpec& model);

}  // namespace composim::dl
