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
  }
  return "?";
}

Bandwidth CollectiveResult::busBandwidth(int ranks) const {
  const SimTime t = duration();
  if (t <= 0.0 || ranks <= 1) return 0.0;
  const double factor = 2.0 * (ranks - 1) / static_cast<double>(ranks);
  return factor * static_cast<double>(payload) / t;
}

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
  everyone_.resize(ranks_.size());
  for (int i = 0; i < size(); ++i) everyone_[static_cast<std::size_t>(i)] = i;
}

void Communicator::beginOp() {
  if (ProfileSink* sink = sim_.profiler()) {
    const ProfileKeys& keys = profile_keys_.get(*sink, track_);
    const char* kind = op_.kind == OpKind::AllReduce   ? "allReduce"
                       : op_.kind == OpKind::Broadcast ? "broadcast"
                                                       : "reduce";
    op_.corr = sink->newCorrelation();
    sink->beginSpan(keys.track, keys.category, sink->intern(kind),
                    {{"algorithm", toString(op_.algorithm)},
                     {"payload_bytes", op_.payload},
                     {"ranks", size()},
                     {"corr", op_.corr}});
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

std::pair<int, int> Communicator::labelIslands() const {
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
  island_of_.assign(static_cast<std::size_t>(n), -1);
  int islands = 0;
  int multi = 0;
  for (int i = 0; i < n; ++i) {
    if (island_of_[static_cast<std::size_t>(i)] >= 0) continue;
    const int id = islands++;
    island_of_[static_cast<std::size_t>(i)] = id;
    bool grew = false;
    for (int j = i + 1; j < n; ++j) {
      if (island_of_[static_cast<std::size_t>(j)] < 0 && pureNvlink(i, j)) {
        island_of_[static_cast<std::size_t>(j)] = id;
        grew = true;
      }
    }
    if (grew) ++multi;
  }
  return {islands, multi};
}

std::vector<std::vector<int>> Communicator::nvlinkIslands() const {
  std::vector<std::vector<int>> islands(
      static_cast<std::size_t>(labelIslands().first));
  for (int i = 0; i < size(); ++i) {
    islands[static_cast<std::size_t>(island_of_[static_cast<std::size_t>(i)])]
        .push_back(i);
  }
  return islands;
}

Algorithm Communicator::chooseAlgorithm() const {
  const auto [islands, multi] = labelIslands();
  if (islands <= 1) return Algorithm::Ring;
  // Hierarchical pays off when the islands are substantial: aggregating
  // inside each island shrinks slow-fabric steps. With mostly-singleton
  // islands (e.g. 4 NVLink GPUs + 4 individually-attached Falcon GPUs) a
  // crossing-minimizing flat ring crosses the slow fabric just as often
  // but skips the extra phases, so NCCL stays with the ring.
  if (multi >= 2) return Algorithm::Hierarchical;
  return Algorithm::Ring;
}

std::vector<int> Communicator::ringOrder(std::vector<int> members) const {
  std::vector<int> order;
  orderRing(members, order);
  return order;
}

void Communicator::orderRing(const std::vector<int>& members,
                             std::vector<int>& order) const {
  order.assign(members.begin(), members.end());
  // Selection in place: order[step..] holds the unused members in their
  // original order, and the nearest one rotates to position `step`, so
  // ties go to the first in `members` order.
  for (std::size_t step = 1; step + 1 < order.size(); ++step) {
    const fabric::NodeId cur =
        ranks_[static_cast<std::size_t>(order[step - 1])];
    double best = -1.0;
    std::size_t best_idx = step;
    for (std::size_t j = step; j < order.size(); ++j) {
      const double rate =
          protocolRate(cur, ranks_[static_cast<std::size_t>(order[j])]);
      if (rate > best) {
        best = rate;
        best_idx = j;
      }
    }
    std::rotate(order.begin() + static_cast<std::ptrdiff_t>(step),
                order.begin() + static_cast<std::ptrdiff_t>(best_idx),
                order.begin() + static_cast<std::ptrdiff_t>(best_idx) + 1);
  }
}

void Communicator::enqueue(Op op) {
  if (op_active_) {
    op_queue_.push_back(std::move(op));
    return;
  }
  op_active_ = true;
  op_ = std::move(op);
  startOp();
}

void Communicator::startOp() {
  op_.start = sim_.now();
  beginOp();
  switch (op_.kind) {
    case OpKind::AllReduce:
      runAllReduce();
      break;
    case OpKind::Broadcast:
      runFan(op_.root, op_.payload, /*toRoot=*/false, [this] { finish(); });
      break;
    case OpKind::Reduce:
      runFan(op_.root, op_.payload, /*toRoot=*/true, [this] { finish(); });
      break;
  }
}

void Communicator::opFinished() {
  op_active_ = false;
  if (!op_queue_.empty()) {
    op_active_ = true;
    // Defer to a fresh event so completion callbacks unwind first.
    sim_.schedule(0.0, [this] {
      op_ = std::move(op_queue_.front());
      op_queue_.pop_front();
      startOp();
    });
  }
}

std::uint32_t Communicator::acquireSchedule() {
  if (free_schedules_.empty()) {
    schedules_.emplace_back();
    return static_cast<std::uint32_t>(schedules_.size() - 1);
  }
  const std::uint32_t s = free_schedules_.back();
  free_schedules_.pop_back();
  return s;
}

void Communicator::runRing(const std::vector<int>& members, Bytes chunk,
                           int steps, std::function<void()> done) {
  const std::uint32_t s = acquireSchedule();
  Schedule& ring = schedules_[s];
  orderRing(members, ring.members);
  const std::size_t n = ring.members.size();
  if (n <= 1 || steps <= 0 || chunk <= 0) {
    free_schedules_.push_back(s);
    sim_.schedule(0.0, std::move(done));
    return;
  }
  // One step: every member forwards a chunk to its ring successor; the
  // step completes when the slowest transfer lands (NCCL's pipeline is
  // modelled at chunk granularity).
  ring.hops.clear();
  for (std::size_t i = 0; i < n; ++i) {
    ring.hops.emplace_back(
        ranks_[static_cast<std::size_t>(ring.members[i])],
        ranks_[static_cast<std::size_t>(ring.members[(i + 1) % n])]);
  }
  ring.chunk = chunk;
  ring.step = 0;
  ring.steps = steps;
  ring.fan = false;
  ring.done = std::move(done);
  runStep(s);
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

void Communicator::runFan(int root, Bytes bytes, bool toRoot,
                          std::function<void()> done) {
  const int n = size();
  if (n <= 1 || bytes <= 0) {
    sim_.schedule(0.0, std::move(done));
    return;
  }
  const std::uint32_t s = acquireSchedule();
  Schedule& fan = schedules_[s];
  // Binomial tree with the root swapped into position 0.
  fan.members.assign(everyone_.begin(), everyone_.end());
  std::swap(fan.members[0], fan.members[static_cast<std::size_t>(root)]);
  fan.chunk = bytes;
  fan.step = 0;
  fan.steps = binomialRounds(n);
  fan.fan = true;
  fan.to_root = toRoot;
  fan.done = std::move(done);
  runStep(s);
}

void Communicator::runStep(std::uint32_t s) {
  Schedule& sc = schedules_[s];
  while (sc.fan && sc.step < sc.steps) {
    // For a broadcast rounds ascend (1, 2, 4 ... senders); for a reduce
    // the same schedule runs in reverse with flow direction flipped.
    const int n = size();
    const int level = sc.to_root ? (sc.steps - 1 - sc.step) : sc.step;
    const int span = 1 << level;
    sc.hops.clear();
    for (int k = 0; k < span && k + span < n; ++k) {
      const fabric::NodeId a =
          ranks_[static_cast<std::size_t>(sc.members[static_cast<std::size_t>(k)])];
      const fabric::NodeId b = ranks_[static_cast<std::size_t>(
          sc.members[static_cast<std::size_t>(k + span)])];
      sc.hops.emplace_back(sc.to_root ? b : a, sc.to_root ? a : b);
    }
    if (!sc.hops.empty()) break;
    ++sc.step;
  }
  if (sc.step == sc.steps) {
    sim_.schedule(0.0, [this, s] { endSchedule(s); });
    return;
  }
  sendWave(s);
}

void Communicator::sendWave(std::uint32_t s) {
  Schedule& sc = schedules_[s];
  sc.in_flight = static_cast<int>(sc.hops.size());
  wave_.clear();
  for (const auto& [src, dst] : sc.hops) {
    op_.bytes_on_fabric += sc.chunk;
    fabric::FlowRequest& rq = wave_.emplace_back();
    rq.src = src;
    rq.dst = dst;
    rq.bytes = sc.chunk;
    rq.done = [this, s](const fabric::FlowResult&) { chunkLanded(s); };
    rq.options.maxRate = protocolRate(src, dst);
    rq.options.extraLatency = fabric::catalog::dmaEndpointOverhead();
    rq.options.tag = "nccl";
    rq.options.correlation = op_.corr;
  }
  net_.startWave(wave_);
}

void Communicator::chunkLanded(std::uint32_t s) {
  Schedule& sc = schedules_[s];
  if (--sc.in_flight == 0) {
    ++sc.step;
    sim_.schedule(kStepOverhead, [this, s] { runStep(s); });
  }
}

void Communicator::endSchedule(std::uint32_t s) {
  // Free the record before the continuation runs: it may start the next
  // ring or fan, which can reuse it.
  const std::function<void()> done = std::move(schedules_[s].done);
  schedules_[s].done = nullptr;
  free_schedules_.push_back(s);
  done();
}

void Communicator::runHierarchical() {
  islands_ = nvlinkIslands();
  // Phase 1: ring all-reduce inside every island concurrently.
  beginPhase("intra-reduce");
  op_.pending = static_cast<int>(islands_.size());
  const auto islandDone = [this] {
    if (--op_.pending == 0) {
      sim_.schedule(0.0, [this] { hierarchicalLeaderRing(); });
    }
  };
  for (const auto& island : islands_) {
    if (island.size() <= 1) {
      islandDone();
      continue;
    }
    const Bytes chunk =
        std::max<Bytes>(1, op_.payload / static_cast<Bytes>(island.size()));
    runRing(island, chunk, 2 * (static_cast<int>(island.size()) - 1),
            islandDone);
  }
}

void Communicator::hierarchicalLeaderRing() {
  endPhase();  // intra-reduce
  beginPhase("leader-ring");
  // Phase 2: ring all-reduce among island leaders over the slow fabric.
  if (islands_.size() <= 1) {
    sim_.schedule(0.0, [this] { hierarchicalBroadcast(); });
    return;
  }
  std::vector<int> leaders;
  leaders.reserve(islands_.size());
  for (const auto& island : islands_) leaders.push_back(island.front());
  const Bytes chunk =
      std::max<Bytes>(1, op_.payload / static_cast<Bytes>(leaders.size()));
  runRing(leaders, chunk, 2 * (static_cast<int>(leaders.size()) - 1),
          [this] { hierarchicalBroadcast(); });
}

void Communicator::hierarchicalBroadcast() {
  endPhase();  // leader-ring
  beginPhase("intra-bcast");
  // Phase 3: broadcast the result from each leader inside its island.
  op_.pending = static_cast<int>(islands_.size());
  const auto islandDone = [this] {
    if (--op_.pending == 0) {
      sim_.schedule(0.0, [this] {
        endPhase();  // intra-bcast
        finish();
      });
    }
  };
  for (const auto& island : islands_) {
    if (island.size() <= 1) {
      islandDone();
      continue;
    }
    // Distribute the reduced buffer inside the island: one ring
    // all-gather pass over the fast fabric.
    const Bytes chunk =
        std::max<Bytes>(1, op_.payload / static_cast<Bytes>(island.size()));
    runRing(island, chunk, static_cast<int>(island.size()) - 1, islandDone);
  }
}

void Communicator::finish() {
  ++st_.completed;
  if (ProfileSink* sink = sim_.profiler()) {
    sink->endSpan(profile_keys_.get(*sink, track_).track,
                  {{"bytes_on_fabric", op_.bytes_on_fabric}});
  }
  CollectiveResult r;
  r.start = op_.start;
  r.end = sim_.now();
  r.payload = op_.payload;
  r.bytes_on_fabric = op_.bytes_on_fabric;
  r.algorithm = op_.algorithm;
  const CollectiveCallback done = std::move(op_.done);
  op_.done = nullptr;
  if (done) done(r);
  opFinished();
}

void Communicator::allReduce(Bytes bytes, CollectiveCallback done,
                             Algorithm algorithm) {
  Op op;
  op.kind = OpKind::AllReduce;
  op.algorithm = algorithm == Algorithm::Auto ? chooseAlgorithm() : algorithm;
  op.payload = bytes;
  op.done = std::move(done);
  enqueue(std::move(op));
}

void Communicator::runAllReduce() {
  const int n = size();
  const Bytes bytes = op_.payload;
  if (n <= 1 || bytes <= 0) {
    sim_.schedule(0.0, [this] { finish(); });
    return;
  }
  switch (op_.algorithm) {
    case Algorithm::Ring: {
      // Parallel channels when every ring edge is pure NVLink.
      const int channels = labelIslands().first == 1 ? kNvlinkChannels : 1;
      op_.pending = channels;
      const Bytes perChannel = std::max<Bytes>(1, bytes / channels);
      const Bytes chunk = std::max<Bytes>(1, perChannel / static_cast<Bytes>(n));
      for (int c = 0; c < channels; ++c) {
        runRing(everyone_, chunk, 2 * (n - 1), [this] {
          if (--op_.pending == 0) finish();
        });
      }
      break;
    }
    case Algorithm::Tree:
      runFan(0, bytes, /*toRoot=*/true, [this] {
        runFan(0, op_.payload, /*toRoot=*/false, [this] { finish(); });
      });
      break;
    case Algorithm::Hierarchical:
      runHierarchical();
      break;
    case Algorithm::Auto:
      break;  // unreachable: resolved by allReduce
  }
}

void Communicator::broadcast(Bytes bytes, int root, CollectiveCallback done) {
  Op op;
  op.kind = OpKind::Broadcast;
  op.algorithm = Algorithm::Tree;
  op.payload = bytes;
  op.root = root;
  op.done = std::move(done);
  enqueue(std::move(op));
}

void Communicator::reduce(Bytes bytes, int root, CollectiveCallback done) {
  Op op;
  op.kind = OpKind::Reduce;
  op.algorithm = Algorithm::Tree;
  op.payload = bytes;
  op.root = root;
  op.done = std::move(done);
  enqueue(std::move(op));
}

}  // namespace composim::collectives
