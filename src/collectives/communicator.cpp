#include "collectives/communicator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fabric/link_catalog.hpp"

namespace composim::collectives {

namespace {
constexpr double kNvlinkProtocolEfficiency = 0.80;
constexpr double kPcieProtocolEfficiency = 0.62;
/// Parallel rings when every ring edge is NVLink (NCCL channels).
constexpr int kNvlinkChannels = 2;
/// Per-step software overhead (kernel launch + protocol handshake).
constexpr SimTime kStepOverhead = units::microseconds(14.0);
}  // namespace

const char* toString(Algorithm a) {
  switch (a) {
    case Algorithm::Auto: return "auto";
    case Algorithm::Ring: return "ring";
    case Algorithm::Tree: return "tree";
    case Algorithm::Hierarchical: return "hierarchical";
    case Algorithm::Naive: return "naive";
  }
  return "?";
}

Bandwidth CollectiveResult::busBandwidth(int ranks) const {
  const SimTime t = duration();
  if (t <= 0.0 || ranks <= 1) return 0.0;
  const double factor = 2.0 * (ranks - 1) / static_cast<double>(ranks);
  return factor * static_cast<double>(payload) / t;
}

struct Communicator::Op {
  SimTime start = 0.0;
  Bytes payload = 0;
  Bytes bytes_on_fabric = 0;
  Algorithm algorithm = Algorithm::Ring;
  const char* kind = "collective";
  /// Correlation id linking this op's span to the fabric flows it injects
  /// (0 while profiling is off). Assigned by beginOp.
  std::uint64_t corr = 0;
};

Communicator::Communicator(Simulator& sim, fabric::FlowNetwork& net,
                           fabric::Topology& topo,
                           std::vector<fabric::NodeId> ranks)
    : sim_(sim), net_(net), topo_(topo), ranks_(std::move(ranks)) {
  if (ranks_.empty()) {
    throw std::invalid_argument("Communicator: empty rank set");
  }
  // Derived from topology names (no global counters) so identical runs in
  // one process produce identical traces.
  track_ = "collectives/" + topo_.node(ranks_.front()).name + " x" +
           std::to_string(size());
}

void Communicator::beginOp(Op& op) {
  if (ProfileSink* sink = sim_.profiler()) {
    const ProfileKeys& keys = profile_keys_.get(*sink, track_);
    op.corr = sink->newCorrelation();
    sink->beginSpan(keys.track, keys.category, sink->intern(op.kind),
                    {{"algorithm", toString(op.algorithm)},
                     {"payload_bytes", op.payload},
                     {"ranks", size()},
                     {"corr", op.corr}});
  }
}

void Communicator::beginPhase(const char* name) {
  if (ProfileSink* sink = sim_.profiler()) {
    const ProfileKeys& keys = profile_keys_.get(*sink, track_);
    sink->beginSpan(keys.track, keys.category, sink->intern(name));
  }
}

void Communicator::endPhase() {
  if (ProfileSink* sink = sim_.profiler()) {
    sink->endSpan(profile_keys_.get(*sink, track_).track);
  }
}

Bandwidth Communicator::protocolRate(fabric::NodeId a, fabric::NodeId b) const {
  const auto& route = topo_.routeCached(a, b);
  if (!route || route->links.empty()) {
    return std::numeric_limits<Bandwidth>::infinity();
  }
  double eff = kNvlinkProtocolEfficiency;
  for (fabric::LinkId l : route->links) {
    if (topo_.link(l).kind != fabric::LinkKind::NVLink) {
      eff = kPcieProtocolEfficiency;
      break;
    }
  }
  return eff * route->bottleneck;
}

std::vector<std::vector<int>> Communicator::nvlinkIslands() const {
  const int n = size();
  auto pureNvlink = [this](int i, int j) {
    const auto& route = topo_.routeCached(ranks_[static_cast<std::size_t>(i)],
                                          ranks_[static_cast<std::size_t>(j)]);
    if (!route || route->links.empty()) return false;
    for (fabric::LinkId l : route->links) {
      if (topo_.link(l).kind != fabric::LinkKind::NVLink) return false;
    }
    return true;
  };
  std::vector<int> island_of(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<int>> islands;
  for (int i = 0; i < n; ++i) {
    if (island_of[static_cast<std::size_t>(i)] >= 0) continue;
    const int id = static_cast<int>(islands.size());
    islands.push_back({i});
    island_of[static_cast<std::size_t>(i)] = id;
    for (int j = i + 1; j < n; ++j) {
      if (island_of[static_cast<std::size_t>(j)] < 0 && pureNvlink(i, j)) {
        islands[static_cast<std::size_t>(id)].push_back(j);
        island_of[static_cast<std::size_t>(j)] = id;
      }
    }
  }
  return islands;
}

Algorithm Communicator::chooseAlgorithm() const {
  const auto islands = nvlinkIslands();
  if (islands.size() <= 1) return Algorithm::Ring;
  // Hierarchical pays off when the islands are substantial: aggregating
  // inside each island shrinks slow-fabric steps. With mostly-singleton
  // islands (e.g. 4 NVLink GPUs + 4 individually-attached Falcon GPUs) a
  // crossing-minimizing flat ring crosses the slow fabric just as often
  // but skips the extra phases, so NCCL stays with the ring.
  std::size_t multi = 0;
  for (const auto& island : islands) {
    if (island.size() > 1) ++multi;
  }
  if (multi >= 2) return Algorithm::Hierarchical;
  return Algorithm::Ring;
}

std::vector<int> Communicator::ringOrder(std::vector<int> members) const {
  if (members.size() <= 2) return members;
  // Filled by index, not push_back: GCC 12 at -O3 reports a
  // -Wfree-nonheap-object false positive on the grow path.
  std::vector<int> order(members.size());
  std::vector<bool> used(members.size(), false);
  order[0] = members[0];
  used[0] = true;
  for (std::size_t step = 1; step < members.size(); ++step) {
    const fabric::NodeId cur =
        ranks_[static_cast<std::size_t>(order[step - 1])];
    double best = -1.0;
    std::size_t best_idx = 0;
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (used[j]) continue;
      const double rate = protocolRate(
          cur, ranks_[static_cast<std::size_t>(members[j])]);
      if (rate > best) {
        best = rate;
        best_idx = j;
      }
    }
    used[best_idx] = true;
    order[step] = members[best_idx];
  }
  return order;
}

void Communicator::enqueue(std::function<void()> opBody) {
  op_queue_.push_back(std::move(opBody));
  if (!op_active_) {
    op_active_ = true;
    auto body = std::move(op_queue_.front());
    op_queue_.pop_front();
    body();
  }
}

void Communicator::opFinished() {
  op_active_ = false;
  if (!op_queue_.empty()) {
    op_active_ = true;
    auto body = std::move(op_queue_.front());
    op_queue_.pop_front();
    // Defer to a fresh event so completion callbacks unwind first.
    sim_.schedule(0.0, std::move(body));
  }
}

void Communicator::sendChunks(std::shared_ptr<Op> op,
                              const std::vector<std::pair<int, int>>& pairs,
                              Bytes bytes, std::function<void()> eachDone) {
  // One adaptor for the whole wave: each request copies a shared handle
  // instead of a fresh copy of eachDone's closure.
  const fabric::FlowCallback landed =
      [cb = std::make_shared<const std::function<void()>>(std::move(eachDone))](
          const fabric::FlowResult&) { (*cb)(); };
  std::vector<fabric::FlowRequest> requests;
  requests.reserve(pairs.size());
  for (const auto& [fromRank, toRank] : pairs) {
    const fabric::NodeId src = ranks_[static_cast<std::size_t>(fromRank)];
    const fabric::NodeId dst = ranks_[static_cast<std::size_t>(toRank)];
    op->bytes_on_fabric += bytes;
    fabric::FlowRequest rq;
    rq.src = src;
    rq.dst = dst;
    rq.bytes = bytes;
    rq.done = landed;
    rq.options.maxRate = protocolRate(src, dst);
    rq.options.extraLatency = fabric::catalog::dmaEndpointOverhead();
    rq.options.tag = "nccl";
    rq.options.correlation = op->corr;
    requests.push_back(std::move(rq));
  }
  net_.startFlows(std::move(requests));
}

void Communicator::runRing(std::shared_ptr<Op> op,
                           const std::vector<int>& unordered, Bytes chunkBytes,
                           int steps_total, std::function<void()> done) {
  const std::vector<int> members = ringOrder(unordered);
  const int n = static_cast<int>(members.size());
  if (n <= 1 || steps_total <= 0 || chunkBytes <= 0) {
    sim_.schedule(0.0, done);
    return;
  }
  // One step: every member forwards a chunk to its ring successor; the
  // step completes when the slowest transfer lands (NCCL's pipeline is
  // modelled at chunk granularity).
  // The step closure must not own itself (a shared_ptr cycle would leak
  // every op abandoned mid-flight, e.g. a communicator retired by fault
  // recovery): it holds a weak self-reference, and each in-flight
  // continuation keeps it alive by capturing the locked pointer.
  auto step = std::make_shared<std::function<void(int)>>();
  *step = [this, op, members, chunkBytes, steps_total, done, n,
           weak_step = std::weak_ptr<std::function<void(int)>>(step)](int s) {
    if (s == steps_total) {
      sim_.schedule(0.0, done);
      return;
    }
    auto self = weak_step.lock();
    auto remaining = std::make_shared<int>(n);
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      pairs.emplace_back(members[static_cast<std::size_t>(i)],
                         members[static_cast<std::size_t>((i + 1) % n)]);
    }
    sendChunks(op, pairs, chunkBytes, [this, remaining, self, s] {
      if (--*remaining == 0) {
        sim_.schedule(kStepOverhead, [self, s] { (*self)(s + 1); });
      }
    });
  };
  (*step)(0);
}

namespace {

/// Binomial-tree rounds for a broadcast from members[0]. Round r has
/// senders members[k] (k < 2^r) transmitting to members[k + 2^r].
int binomialRounds(int n) {
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  return rounds;
}

}  // namespace

void Communicator::runFanSequential(std::shared_ptr<Op> op, int root,
                                    Bytes bytes, bool toRoot,
                                    std::function<void()> done) {
  // Binomial tree with the root swapped into position 0.
  std::vector<int> members(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) members[static_cast<std::size_t>(i)] = i;
  std::swap(members[0], members[static_cast<std::size_t>(root)]);
  const int n = size();
  const int rounds = binomialRounds(n);
  if (n <= 1 || bytes <= 0) {
    sim_.schedule(0.0, done);
    return;
  }

  // Weak self-reference for the same reason as runRing: the closure must
  // not keep itself alive once every continuation is gone.
  auto round = std::make_shared<std::function<void(int)>>();
  *round = [this, op, members, bytes, toRoot, done, n, rounds,
            weak_round = std::weak_ptr<std::function<void(int)>>(round)](int r) {
    if (r == rounds) {
      sim_.schedule(0.0, done);
      return;
    }
    auto self = weak_round.lock();
    // For a broadcast rounds ascend (1, 2, 4 ... senders); for a reduce
    // the same schedule runs in reverse with flow direction flipped.
    const int level = toRoot ? (rounds - 1 - r) : r;
    const int span = 1 << level;
    std::vector<std::pair<int, int>> pairs;
    for (int k = 0; k < span && k + span < n; ++k) {
      const int a = members[static_cast<std::size_t>(k)];
      const int b = members[static_cast<std::size_t>(k + span)];
      pairs.emplace_back(toRoot ? b : a, toRoot ? a : b);
    }
    if (pairs.empty()) {
      (*self)(r + 1);
      return;
    }
    auto remaining = std::make_shared<int>(static_cast<int>(pairs.size()));
    sendChunks(op, pairs, bytes, [this, remaining, self, r] {
      if (--*remaining == 0) {
        sim_.schedule(kStepOverhead, [self, r] { (*self)(r + 1); });
      }
    });
  };
  (*round)(0);
}

void Communicator::runHierarchical(std::shared_ptr<Op> op, Bytes bytes,
                                   std::function<void()> done) {
  const auto islands = nvlinkIslands();
  std::vector<int> leaders;
  leaders.reserve(islands.size());
  for (const auto& island : islands) leaders.push_back(island.front());

  // Phase 1: ring all-reduce inside every island concurrently.
  beginPhase("intra-reduce");
  auto phase1_remaining = std::make_shared<int>(static_cast<int>(islands.size()));
  auto phase3 = [this, op, islands, bytes, done] {
    endPhase();  // leader-ring
    beginPhase("intra-bcast");
    // Phase 3: broadcast the result from each leader inside its island.
    auto bcast_end = [this, done] {
      endPhase();  // intra-bcast
      done();
    };
    auto remaining = std::make_shared<int>(static_cast<int>(islands.size()));
    for (const auto& island : islands) {
      if (island.size() <= 1) {
        if (--*remaining == 0) sim_.schedule(0.0, bcast_end);
        continue;
      }
      auto broadcast_done = [this, remaining, bcast_end] {
        if (--*remaining == 0) sim_.schedule(0.0, bcast_end);
      };
      // Distribute the reduced buffer inside the island: one ring
      // all-gather pass over the fast fabric.
      const Bytes chunk = std::max<Bytes>(1, bytes / static_cast<Bytes>(island.size()));
      runRing(op, island, chunk, static_cast<int>(island.size()) - 1,
              broadcast_done);
    }
  };
  auto phase2 = [this, op, leaders, bytes, phase3] {
    endPhase();  // intra-reduce
    beginPhase("leader-ring");
    // Phase 2: ring all-reduce among island leaders over the slow fabric.
    if (leaders.size() <= 1) {
      sim_.schedule(0.0, phase3);
      return;
    }
    const Bytes chunk = std::max<Bytes>(1, bytes / static_cast<Bytes>(leaders.size()));
    runRing(op, leaders, chunk, 2 * (static_cast<int>(leaders.size()) - 1),
            phase3);
  };

  for (const auto& island : islands) {
    if (island.size() <= 1) {
      if (--*phase1_remaining == 0) sim_.schedule(0.0, phase2);
      continue;
    }
    const Bytes chunk = std::max<Bytes>(1, bytes / static_cast<Bytes>(island.size()));
    runRing(op, island, chunk, 2 * (static_cast<int>(island.size()) - 1),
            [phase1_remaining, phase2, this] {
              if (--*phase1_remaining == 0) sim_.schedule(0.0, phase2);
            });
  }
}

void Communicator::finish(std::shared_ptr<Op> op, CollectiveCallback done) {
  ++completed_;
  if (ProfileSink* sink = sim_.profiler()) {
    sink->endSpan(profile_keys_.get(*sink, track_).track,
                  {{"bytes_on_fabric", op->bytes_on_fabric}});
  }
  CollectiveResult r;
  r.start = op->start;
  r.end = sim_.now();
  r.payload = op->payload;
  r.bytes_on_fabric = op->bytes_on_fabric;
  r.algorithm = op->algorithm;
  if (done) done(r);
  opFinished();
}

void Communicator::allReduce(Bytes bytes, CollectiveCallback done,
                             Algorithm algorithm) {
  if (algorithm == Algorithm::Auto) algorithm = chooseAlgorithm();
  auto op = std::make_shared<Op>();
  op->payload = bytes;
  op->algorithm = algorithm;
  op->kind = "allReduce";
  enqueue([this, op, bytes, done, algorithm] {
    op->start = sim_.now();
    beginOp(*op);
    runAllReduce(op, bytes, done, algorithm);
  });
}

void Communicator::runAllReduce(std::shared_ptr<Op> op, Bytes bytes,
                                CollectiveCallback done, Algorithm algorithm) {
  const int n = size();

  if (n <= 1 || bytes <= 0) {
    sim_.schedule(0.0, [this, op, done] { finish(op, done); });
    return;
  }

  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;

  switch (algorithm) {
    case Algorithm::Ring: {
      // Parallel channels when every ring edge is pure NVLink.
      int channels = 1;
      const auto islands = nvlinkIslands();
      if (islands.size() == 1 && n > 1) channels = kNvlinkChannels;
      auto remaining = std::make_shared<int>(channels);
      const Bytes perChannel = std::max<Bytes>(1, bytes / channels);
      for (int c = 0; c < channels; ++c) {
        const Bytes chunk = std::max<Bytes>(1, perChannel / static_cast<Bytes>(n));
        runRing(op, everyone, chunk, 2 * (n - 1), [this, remaining, op, done] {
          if (--*remaining == 0) finish(op, done);
        });
      }
      break;
    }
    case Algorithm::Tree: {
      runFanSequential(op, 0, bytes, /*toRoot=*/true, [this, op, bytes, done] {
        runFanSequential(op, 0, bytes, /*toRoot=*/false,
                         [this, op, done] { finish(op, done); });
      });
      break;
    }
    case Algorithm::Hierarchical: {
      runHierarchical(op, bytes, [this, op, done] { finish(op, done); });
      break;
    }
    case Algorithm::Naive: {
      // Everyone sends to rank 0, rank 0 replies to everyone (PyTorch DP's
      // master-centric pattern; also the ablation baseline).
      auto gathered = std::make_shared<int>(n - 1);
      std::vector<std::pair<int, int>> to_root;
      to_root.reserve(static_cast<std::size_t>(n - 1));
      for (int i = 1; i < n; ++i) to_root.emplace_back(i, 0);
      sendChunks(op, to_root, bytes, [this, op, gathered, bytes, done, n] {
        if (--*gathered != 0) return;
        auto scattered = std::make_shared<int>(n - 1);
        std::vector<std::pair<int, int>> from_root;
        from_root.reserve(static_cast<std::size_t>(n - 1));
        for (int j = 1; j < n; ++j) from_root.emplace_back(0, j);
        sendChunks(op, from_root, bytes, [this, op, scattered, done] {
          if (--*scattered == 0) finish(op, done);
        });
      });
      break;
    }
    case Algorithm::Auto:
      break;  // unreachable: resolved above
  }
}

void Communicator::broadcast(Bytes bytes, int root, CollectiveCallback done) {
  auto op = std::make_shared<Op>();
  op->payload = bytes;
  op->algorithm = Algorithm::Tree;
  op->kind = "broadcast";
  enqueue([this, op, bytes, root, done] {
    op->start = sim_.now();
    beginOp(*op);
    runFanSequential(op, root, bytes, /*toRoot=*/false,
                     [this, op, done] { finish(op, done); });
  });
}

void Communicator::reduce(Bytes bytes, int root, CollectiveCallback done) {
  auto op = std::make_shared<Op>();
  op->payload = bytes;
  op->algorithm = Algorithm::Tree;
  op->kind = "reduce";
  enqueue([this, op, bytes, root, done] {
    op->start = sim_.now();
    beginOp(*op);
    runFanSequential(op, root, bytes, /*toRoot=*/true,
                     [this, op, done] { finish(op, done); });
  });
}

void Communicator::allGather(Bytes shardBytes, CollectiveCallback done) {
  auto op = std::make_shared<Op>();
  op->payload = shardBytes * size();
  op->algorithm = Algorithm::Ring;
  op->kind = "allGather";
  enqueue([this, op, shardBytes, done] {
    op->start = sim_.now();
    beginOp(*op);
    std::vector<int> everyone(static_cast<std::size_t>(size()));
    for (int i = 0; i < size(); ++i) everyone[static_cast<std::size_t>(i)] = i;
    runRing(op, everyone, shardBytes, size() - 1,
            [this, op, done] { finish(op, done); });
  });
}

void Communicator::allToAll(Bytes shardBytes, CollectiveCallback done) {
  auto op = std::make_shared<Op>();
  op->payload = shardBytes * (size() - 1);
  op->algorithm = Algorithm::Ring;
  op->kind = "allToAll";
  enqueue([this, op, shardBytes, done] {
    op->start = sim_.now();
    beginOp(*op);
    const int n = size();
    if (n <= 1 || shardBytes <= 0) {
      sim_.schedule(0.0, [this, op, done] { finish(op, done); });
      return;
    }
    auto remaining = std::make_shared<int>(n * (n - 1));
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(static_cast<std::size_t>(n * (n - 1)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) pairs.emplace_back(i, j);
      }
    }
    sendChunks(op, pairs, shardBytes, [this, remaining, op, done] {
      if (--*remaining == 0) finish(op, done);
    });
  });
}

void Communicator::barrier(CollectiveCallback done) {
  auto op = std::make_shared<Op>();
  op->payload = 0;
  op->algorithm = Algorithm::Ring;
  op->kind = "barrier";
  enqueue([this, op, done] {
    op->start = sim_.now();
    beginOp(*op);
    std::vector<int> everyone(static_cast<std::size_t>(size()));
    for (int i = 0; i < size(); ++i) everyone[static_cast<std::size_t>(i)] = i;
    // Two latency-only ring passes propagate "everyone arrived".
    runRing(op, everyone, 1, 2 * (size() - 1),
            [this, op, done] { finish(op, done); });
  });
}

void Communicator::reduceScatter(Bytes bytes, CollectiveCallback done) {
  auto op = std::make_shared<Op>();
  op->payload = bytes;
  op->algorithm = Algorithm::Ring;
  op->kind = "reduceScatter";
  enqueue([this, op, bytes, done] {
    op->start = sim_.now();
    beginOp(*op);
    std::vector<int> everyone(static_cast<std::size_t>(size()));
    for (int i = 0; i < size(); ++i) everyone[static_cast<std::size_t>(i)] = i;
    const Bytes chunk = std::max<Bytes>(1, bytes / size());
    runRing(op, everyone, chunk, size() - 1,
            [this, op, done] { finish(op, done); });
  });
}

}  // namespace composim::collectives
