// composim graph-IR: operator-level workload graphs.
//
// A Graph is the portable description of a training workload: a DAG of
// typed operators (conv2d, linear, attention, ...) with output tensor
// shapes, dataflow edges, and collective annotations, plus the model-level
// metadata the simulator needs (efficiencies, dataset, paper batch size).
// Graphs arrive from JSON (loader.hpp), are validated here (unique ids,
// edges resolve, acyclic, shapes consistent), and are lowered to the
// layer-table ModelSpec the trainer executes (lowering.hpp). This is how
// new workloads enter the system without touching C++ — see DESIGN.md §15.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dl/dataset.hpp"
#include "sim/units.hpp"

namespace composim::dl::graph_ir {

/// Operator vocabulary. Three classes:
///  - compute ops lower to exactly one ModelSpec layer (in topological
///    order), carrying the FLOP/param/activation arithmetic;
///  - structural ops (input, concat, add, pools) carry dataflow and shape
///    information only and lower to nothing — the performance model does
///    not charge for elementwise glue;
///  - collective ops annotate communication (gradient all-reduce) and
///    lower to nothing; the trainer derives sync volume from the summed
///    parameter bytes (ModelSpec::gradientBytes).
enum class OpKind {
  // structural
  Input,
  Concat,
  Add,
  MaxPool2d,
  GlobalAvgPool,
  // compute
  Conv2d,
  DepthwiseConv2d,
  Linear,
  Embedding,
  Attention,
  TransformerFfn,
  Custom,
  // collective annotations
  AllReduce,
  AllGather,
  ReduceScatter,
  Broadcast,
};

const char* toString(OpKind kind);
/// Resolve a schema kind string ("conv2d", "allreduce", ...); false when
/// the kind is unknown.
bool opKindFromString(const std::string& name, OpKind* out);

bool isCompute(OpKind kind);
bool isStructural(OpKind kind);
bool isCollective(OpKind kind);

/// Output tensor shape; dims[0] is the channel dimension for rank-3
/// image tensors, the token dimension for rank-2 sequence tensors.
struct TensorShape {
  std::vector<std::int64_t> dims;

  int rank() const { return static_cast<int>(dims.size()); }
  std::int64_t channels() const { return dims.empty() ? 0 : dims.front(); }
  std::int64_t lastDim() const { return dims.empty() ? 0 : dims.back(); }
  std::string toString() const;

  bool operator==(const TensorShape& other) const = default;
};

/// Per-op attributes. A flat union of the fields the operator vocabulary
/// uses; each kind reads its own subset (validation enforces presence):
///   conv2d:          in_channels, out_channels, kernel, out_hw, batchnorm
///   depthwise_conv2d: channels, kernel, out_hw
///   linear:          in_features, out_features, tokens (default 1)
///   embedding:       vocab, positions, types, hidden, seq
///   attention:       hidden, seq
///   transformer_ffn: hidden, ff, seq
///   custom:          params, flops, activation_bytes, layer_kind
///   maxpool2d:       kernel (optional)
///   collectives:     tensor (optional, e.g. "gradients")
struct OpAttrs {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t channels = 0;
  std::int64_t kernel = 0;
  std::int64_t out_hw = 0;
  bool batchnorm = true;
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;
  std::int64_t tokens = 1;
  std::int64_t vocab = 0;
  std::int64_t positions = 0;
  std::int64_t types = 0;
  std::int64_t hidden = 0;
  std::int64_t seq = 0;
  std::int64_t ff = 0;
  std::int64_t params = 0;
  double flops = 0.0;
  std::int64_t activation_bytes = 0;
  std::string layer_kind;  // custom ops: ModelSpec LayerKind name
  std::string tensor;      // collectives: what is being synchronized

  bool operator==(const OpAttrs& other) const = default;
};

struct OpNode {
  std::string id;                   // unique; becomes the layer name
  OpKind kind = OpKind::Custom;
  std::vector<std::string> inputs;  // producer op ids (dataflow edges)
  TensorShape shape;                // output tensor shape
  OpAttrs attrs;

  bool operator==(const OpNode& other) const = default;
};

/// Model-level metadata carried alongside the operator list; maps 1:1
/// onto the non-layer fields of ModelSpec.
struct GraphMeta {
  std::string name;
  std::string domain = "vision";  // "vision" | "nlp"
  std::string dataset;            // dataset name (registry key)
  int reported_depth = 0;
  double fp16_efficiency = 0.25;
  double fp32_efficiency = 0.40;
  Bytes input_bytes_per_sample = 0;
  double activation_overhead_factor = 2.0;
  int batch_per_gpu = 1;
  int epochs = 1;

  bool operator==(const GraphMeta& other) const = default;
};

struct Graph {
  GraphMeta meta;
  std::vector<OpNode> ops;
  /// A graph may carry its dataset inline (train_samples, per-sample
  /// costs) so a JSON-only workload needs no pre-registered dataset.
  std::optional<DatasetSpec> inline_dataset;

  /// Full structural validation: non-empty name/ops, unique op ids
  /// (AlreadyExists), edges resolve (NotFound), acyclic
  /// (FailedPrecondition), per-kind attribute and shape consistency
  /// (InvalidArgument). Lowering refuses unvalidated graphs.
  Status validate() const;

  /// Deterministic topological order (Kahn's algorithm, earliest-declared
  /// ready op first); FailedPrecondition on a cycle, naming one op in it.
  Status topologicalOrder(std::vector<std::size_t>* order) const;
};

}  // namespace composim::dl::graph_ir
