#include "dl/graph_ir/graph.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

namespace composim::dl::graph_ir {

const char* toString(OpKind kind) {
  switch (kind) {
    case OpKind::Input: return "input";
    case OpKind::Concat: return "concat";
    case OpKind::Add: return "add";
    case OpKind::MaxPool2d: return "maxpool2d";
    case OpKind::GlobalAvgPool: return "global_avgpool";
    case OpKind::Conv2d: return "conv2d";
    case OpKind::DepthwiseConv2d: return "depthwise_conv2d";
    case OpKind::Linear: return "linear";
    case OpKind::Embedding: return "embedding";
    case OpKind::Attention: return "attention";
    case OpKind::TransformerFfn: return "transformer_ffn";
    case OpKind::Custom: return "custom";
    case OpKind::AllReduce: return "allreduce";
    case OpKind::AllGather: return "allgather";
    case OpKind::ReduceScatter: return "reduce_scatter";
    case OpKind::Broadcast: return "broadcast";
  }
  return "?";
}

bool opKindFromString(const std::string& name, OpKind* out) {
  static constexpr OpKind kAll[] = {
      OpKind::Input,         OpKind::Concat,        OpKind::Add,
      OpKind::MaxPool2d,     OpKind::GlobalAvgPool, OpKind::Conv2d,
      OpKind::DepthwiseConv2d, OpKind::Linear,      OpKind::Embedding,
      OpKind::Attention,     OpKind::TransformerFfn, OpKind::Custom,
      OpKind::AllReduce,     OpKind::AllGather,     OpKind::ReduceScatter,
      OpKind::Broadcast,
  };
  for (const OpKind k : kAll) {
    if (name == toString(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool isCompute(OpKind kind) {
  switch (kind) {
    case OpKind::Conv2d:
    case OpKind::DepthwiseConv2d:
    case OpKind::Linear:
    case OpKind::Embedding:
    case OpKind::Attention:
    case OpKind::TransformerFfn:
    case OpKind::Custom:
      return true;
    default:
      return false;
  }
}

bool isCollective(OpKind kind) {
  switch (kind) {
    case OpKind::AllReduce:
    case OpKind::AllGather:
    case OpKind::ReduceScatter:
    case OpKind::Broadcast:
      return true;
    default:
      return false;
  }
}

bool isStructural(OpKind kind) {
  return !isCompute(kind) && !isCollective(kind);
}

std::string TensorShape::toString() const {
  std::string s = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(dims[i]);
  }
  return s + "]";
}

const OpNode* Graph::findOp(const std::string& id) const {
  for (const OpNode& op : ops) {
    if (op.id == id) return &op;
  }
  return nullptr;
}

namespace {

Status opError(const OpNode& op, const std::string& why,
               StatusCode code = StatusCode::InvalidArgument) {
  return Status::failure("op '" + op.id + "' (" + toString(op.kind) + "): " +
                             why,
                         code);
}

/// Kind-specific attribute + shape rules. `producers` maps input ids to
/// the producing nodes (already resolved by the caller).
Status checkOp(const OpNode& op, const std::vector<const OpNode*>& producers) {
  const auto& a = op.attrs;
  const auto want_inputs = [&](std::size_t lo, std::size_t hi) -> Status {
    if (op.inputs.size() < lo || op.inputs.size() > hi) {
      return opError(op, "expects between " + std::to_string(lo) + " and " +
                             std::to_string(hi) + " inputs, has " +
                             std::to_string(op.inputs.size()));
    }
    return Status::success();
  };
  // Channel dimension of the (single) producer, when it exposes one.
  const auto input_channels = [&]() -> std::int64_t {
    return producers.empty() ? 0 : producers.front()->shape.channels();
  };

  // Sizes are bounded so that lowering's integer cost products (at most
  // kernel^2 * in * out) and a concat's channel sum stay inside int64.
  constexpr std::int64_t kMaxSize = std::int64_t{1} << 20;
  constexpr std::int64_t kMaxKernel = std::int64_t{1} << 10;
  for (const std::int64_t d : op.shape.dims) {
    if (d > kMaxSize) {
      return opError(op, "shape " + op.shape.toString() + " has a dim over " +
                             std::to_string(kMaxSize));
    }
  }
  for (const std::int64_t size :
       {a.in_channels, a.out_channels, a.channels, a.out_hw, a.in_features,
        a.out_features, a.tokens, a.vocab, a.positions, a.types, a.hidden,
        a.seq, a.ff}) {
    if (size > kMaxSize) {
      return opError(op, "size attribute " + std::to_string(size) +
                             " is over " + std::to_string(kMaxSize));
    }
  }
  if (a.kernel > kMaxKernel) {
    return opError(op, "kernel " + std::to_string(a.kernel) + " is over " +
                           std::to_string(kMaxKernel));
  }

  switch (op.kind) {
    case OpKind::Input:
      if (!op.inputs.empty()) return opError(op, "input ops take no inputs");
      if (op.shape.rank() == 0) return opError(op, "input needs a shape");
      return Status::success();

    case OpKind::Concat: {
      if (Status s = want_inputs(2, 64); !s) return s;
      std::int64_t total = 0;
      for (const OpNode* p : producers) {
        if (p->shape.rank() != producers.front()->shape.rank()) {
          return opError(op, "concat inputs disagree on rank");
        }
        total += p->shape.channels();
      }
      if (op.shape.channels() != total) {
        return opError(op, "concat of " + std::to_string(total) +
                               " channels declared as shape " +
                               op.shape.toString());
      }
      return Status::success();
    }

    case OpKind::Add: {
      if (Status s = want_inputs(2, 64); !s) return s;
      for (const OpNode* p : producers) {
        if (!(p->shape == op.shape)) {
          return opError(op, "add input '" + p->id + "' has shape " +
                                 p->shape.toString() + ", expected " +
                                 op.shape.toString());
        }
      }
      return Status::success();
    }

    case OpKind::MaxPool2d:
      if (Status s = want_inputs(1, 1); !s) return s;
      if (op.shape.channels() != input_channels()) {
        return opError(op, "pooling cannot change the channel count");
      }
      return Status::success();

    case OpKind::GlobalAvgPool:
      if (Status s = want_inputs(1, 1); !s) return s;
      if (op.shape.rank() != 1 || op.shape.channels() != input_channels()) {
        return opError(op, "global pool of " +
                               std::to_string(input_channels()) +
                               " channels must have shape [" +
                               std::to_string(input_channels()) + "]");
      }
      return Status::success();

    case OpKind::Conv2d: {
      if (Status s = want_inputs(0, 1); !s) return s;
      if (a.in_channels <= 0 || a.out_channels <= 0 || a.kernel <= 0 ||
          a.out_hw <= 0) {
        return opError(op,
                       "needs in_channels, out_channels, kernel, out_hw > 0");
      }
      const TensorShape want{{a.out_channels, a.out_hw, a.out_hw}};
      if (!(op.shape == want)) {
        return opError(op, "shape " + op.shape.toString() + " != " +
                               want.toString() + " implied by attrs");
      }
      if (!producers.empty() && producers.front()->shape.rank() == 3 &&
          input_channels() != a.in_channels) {
        return opError(op, "consumes " + std::to_string(a.in_channels) +
                               " channels but input '" +
                               producers.front()->id + "' produces " +
                               std::to_string(input_channels()));
      }
      return Status::success();
    }

    case OpKind::DepthwiseConv2d: {
      if (Status s = want_inputs(1, 1); !s) return s;
      if (a.channels <= 0 || a.kernel <= 0 || a.out_hw <= 0) {
        return opError(op, "needs channels, kernel, out_hw > 0");
      }
      const TensorShape want{{a.channels, a.out_hw, a.out_hw}};
      if (!(op.shape == want)) {
        return opError(op, "shape " + op.shape.toString() + " != " +
                               want.toString() + " implied by attrs");
      }
      if (input_channels() != a.channels) {
        return opError(op, "depthwise over " + std::to_string(a.channels) +
                               " channels but input produces " +
                               std::to_string(input_channels()));
      }
      return Status::success();
    }

    case OpKind::Linear:
      if (Status s = want_inputs(0, 1); !s) return s;
      if (a.in_features <= 0 || a.out_features <= 0 || a.tokens <= 0) {
        return opError(op, "needs in, out, tokens > 0");
      }
      if (!producers.empty() &&
          producers.front()->shape.lastDim() != a.in_features) {
        return opError(op, "consumes " + std::to_string(a.in_features) +
                               " features but input '" +
                               producers.front()->id + "' produces " +
                               std::to_string(producers.front()->shape.lastDim()));
      }
      if (op.shape.lastDim() != a.out_features) {
        return opError(op, "shape " + op.shape.toString() +
                               " does not end in out=" +
                               std::to_string(a.out_features));
      }
      return Status::success();

    case OpKind::Embedding:
      if (Status s = want_inputs(0, 1); !s) return s;
      if (a.vocab <= 0 || a.hidden <= 0 || a.seq <= 0) {
        return opError(op, "needs vocab, hidden, seq > 0");
      }
      if (!(op.shape == TensorShape{{a.seq, a.hidden}})) {
        return opError(op, "shape must be [seq, hidden]");
      }
      return Status::success();

    case OpKind::Attention:
      if (Status s = want_inputs(1, 1); !s) return s;
      if (a.hidden <= 0 || a.seq <= 0) {
        return opError(op, "needs hidden, seq > 0");
      }
      if (!(op.shape == TensorShape{{a.seq, a.hidden}}) ||
          !(producers.front()->shape == op.shape)) {
        return opError(op, "attention preserves [seq, hidden]");
      }
      return Status::success();

    case OpKind::TransformerFfn:
      if (Status s = want_inputs(1, 1); !s) return s;
      if (a.hidden <= 0 || a.ff <= 0 || a.seq <= 0) {
        return opError(op, "needs hidden, ff, seq > 0");
      }
      if (!(op.shape == TensorShape{{a.seq, a.hidden}}) ||
          !(producers.front()->shape == op.shape)) {
        return opError(op, "transformer_ffn preserves [seq, hidden]");
      }
      return Status::success();

    case OpKind::Custom: {
      if (a.params < 0 || a.flops < 0.0 || a.activation_bytes < 0) {
        return opError(op, "custom costs must be non-negative");
      }
      return Status::success();
    }

    case OpKind::AllReduce:
    case OpKind::AllGather:
    case OpKind::ReduceScatter:
    case OpKind::Broadcast:
      if (op.inputs.empty()) {
        return opError(op, "collective annotations need at least one input");
      }
      return Status::success();
  }
  return opError(op, "unhandled kind", StatusCode::Internal);
}

}  // namespace

Status Graph::topologicalOrder(std::vector<std::size_t>* order) const {
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < ops.size(); ++i) index.emplace(ops[i].id, i);

  std::vector<int> pending(ops.size(), 0);
  std::vector<std::vector<std::size_t>> consumers(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const std::string& in : ops[i].inputs) {
      const auto it = index.find(in);
      if (it == index.end()) {
        return Status::notFound("op '" + ops[i].id +
                                "': input '" + in + "' is not defined");
      }
      if (it->second == i) {
        return Status::failedPrecondition("op '" + ops[i].id +
                                          "' consumes itself");
      }
      ++pending[i];
      consumers[it->second].push_back(i);
    }
  }

  order->clear();
  order->reserve(ops.size());
  // Earliest-declared ready op first: lowering order is deterministic and
  // equals declaration order whenever the declaration is already
  // topological (which the emitted graphs guarantee).
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (pending[i] == 0) ready.push_back(i);
  }
  std::make_heap(ready.begin(), ready.end(), std::greater<>());
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>());
    const std::size_t i = ready.back();
    ready.pop_back();
    order->push_back(i);
    for (const std::size_t c : consumers[i]) {
      if (--pending[c] == 0) {
        ready.push_back(c);
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
      }
    }
  }
  if (order->size() != ops.size()) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (pending[i] > 0) {
        return Status::failedPrecondition(
            "graph has a cycle involving op '" + ops[i].id + "'");
      }
    }
  }
  return Status::success();
}

Status Graph::validate() const {
  if (meta.name.empty()) {
    return Status::invalidArgument("graph has no model name");
  }
  if (ops.empty()) {
    return Status::invalidArgument("graph '" + meta.name + "' has no ops");
  }
  std::unordered_map<std::string, const OpNode*> by_id;
  for (const OpNode& op : ops) {
    if (op.id.empty()) {
      return Status::invalidArgument("graph '" + meta.name +
                                     "' contains an op without an id");
    }
    if (!by_id.emplace(op.id, &op).second) {
      return Status::alreadyExists("duplicate op id '" + op.id + "'");
    }
  }
  bool has_compute = false;
  for (const OpNode& op : ops) {
    std::vector<const OpNode*> producers;
    producers.reserve(op.inputs.size());
    for (const std::string& in : op.inputs) {
      const auto it = by_id.find(in);
      if (it == by_id.end()) {
        return Status::notFound("op '" + op.id + "': input '" + in +
                                "' is not defined");
      }
      producers.push_back(it->second);
    }
    if (Status s = checkOp(op, producers); !s) return s;
    has_compute = has_compute || isCompute(op.kind);
  }
  if (!has_compute) {
    return Status::invalidArgument("graph '" + meta.name +
                                   "' has no compute ops to lower");
  }
  std::vector<std::size_t> order;
  return topologicalOrder(&order);
}

}  // namespace composim::dl::graph_ir
