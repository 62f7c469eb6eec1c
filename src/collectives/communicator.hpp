// composim: NCCL-like collective communication over the simulated fabric.
//
// A communicator groups GPU endpoints (fabric nodes) and runs collectives
// as sequences of concurrent point-to-point flows, so contention and
// topology effects emerge from the flow model instead of a closed-form
// alpha-beta cost. Matching NCCL behaviour that matters for the paper:
//
//  * ring all-reduce = reduce-scatter + all-gather, 2(N-1) steps;
//  * multiple channels (parallel rings) on NVLink-rich topologies;
//  * hierarchical all-reduce (reduce inside each NVLink island first,
//    cross the slow fabric once) only when the group holds at least two
//    NVLink islands of more than one GPU; otherwise a crossing-minimizing
//    ring. hybridGPUs (one 4-GPU island plus four singletons) therefore
//    runs the ring, which is as fast there as on falconGPUs;
//  * protocol efficiency below raw p2p bandwidth (NCCL's LL/LL128
//    protocols reach ~60% of link rate on PCIe, ~80% on NVLink).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/flow_network.hpp"

namespace composim::collectives {

enum class Algorithm { Auto, Ring, Tree, Hierarchical };

const char* toString(Algorithm a);

struct CollectiveResult {
  SimTime start = 0.0;
  SimTime end = 0.0;
  Bytes payload = 0;        // per-rank payload size
  Bytes bytes_on_fabric = 0;  // total bytes injected into the fabric
  Algorithm algorithm = Algorithm::Ring;
  SimTime duration() const { return end - start; }
  /// NCCL-style "bus bandwidth" figure of merit: payload * 2(N-1)/N / t.
  Bandwidth busBandwidth(int ranks) const;
};

using CollectiveCallback = std::function<void(const CollectiveResult&)>;

class Communicator {
 public:
  Communicator(Simulator& sim, fabric::FlowNetwork& net, fabric::Topology& topo,
               std::vector<fabric::NodeId> ranks);

  int size() const { return static_cast<int>(ranks_.size()); }
  const std::vector<fabric::NodeId>& ranks() const { return ranks_; }

  /// All-reduce `bytes` of gradient data resident on every rank.
  void allReduce(Bytes bytes, CollectiveCallback done,
                 Algorithm algorithm = Algorithm::Auto);

  /// Broadcast `bytes` from rank `root` to all others (tree over fast
  /// links, sequential fan-out otherwise).
  void broadcast(Bytes bytes, int root, CollectiveCallback done);

  /// Reduce all ranks' buffers to `root` (inverted broadcast tree).
  void reduce(Bytes bytes, int root, CollectiveCallback done);

  /// Islands of ranks mutually connected by pure-NVLink routes. Rank order
  /// is preserved inside each island.
  std::vector<std::vector<int>> nvlinkIslands() const;

  /// NCCL-style topology-aware ring order over `members` (rank indices):
  /// greedy nearest-neighbour by route bottleneck, so the ring follows
  /// wide NVLink edges where they exist and crosses slow fabric as few
  /// times as possible.
  std::vector<int> ringOrder(std::vector<int> members) const;

  /// The algorithm Auto would pick for this group.
  Algorithm chooseAlgorithm() const;

  /// Protocol-derated rate cap for a route between two ranks.
  Bandwidth protocolRate(fabric::NodeId a, fabric::NodeId b) const;

  std::uint64_t collectivesCompleted() const { return st_.completed; }

  /// Quiescent-point snapshot: with no collective in flight the only
  /// persistent state is the completion counter. Throws std::logic_error
  /// while an op is active or queued.
  struct State {
    std::uint64_t completed = 0;
  };

  State state() const {
    if (op_active_ || !op_queue_.empty()) {
      throw std::logic_error("Communicator::state: collective in flight");
    }
    return st_;
  }

  void restoreState(const State& st) {
    if (op_active_ || !op_queue_.empty()) {
      throw std::logic_error("Communicator::restoreState: collective in flight");
    }
    st_ = st;
  }

 private:
  struct Op;  // shared state of one in-flight collective

  /// Collectives enqueue like NCCL kernels on one CUDA stream: strictly
  /// in-order, one at a time per communicator.
  void enqueue(std::function<void()> opBody);
  void opFinished();

  // Profiling: ops run one at a time, so begin/end pairs nest on the
  // communicator's track; hierarchical phases nest inside the op span.
  // beginOp also draws the op's correlation id (ProfileSink::
  // newCorrelation) and stamps it on the op span as "corr"; sendChunks
  // threads the same id through FlowOptions::correlation, so every fabric
  // flow of every phase links back to the collective that issued it.
  void beginOp(Op& op);
  void beginPhase(const char* name);
  void endPhase();

  void runAllReduce(std::shared_ptr<Op> op, Bytes bytes, CollectiveCallback done,
                    Algorithm algorithm);
  void runRing(std::shared_ptr<Op> op, const std::vector<int>& members,
               Bytes bytes, int steps_total, std::function<void()> done);
  void runFanSequential(std::shared_ptr<Op> op, int root, Bytes bytes,
                        bool toRoot, std::function<void()> done);
  void runHierarchical(std::shared_ptr<Op> op, Bytes bytes,
                       std::function<void()> done);
  /// Inject one wave of same-size chunks ((from, to) rank pairs) as a
  /// single batched arrival — one solve epoch for the whole wave instead
  /// of one per flow (FlowNetwork::startFlows). `eachDone` fires once per
  /// landed chunk.
  void sendChunks(std::shared_ptr<Op> op,
                  const std::vector<std::pair<int, int>>& pairs, Bytes bytes,
                  std::function<void()> eachDone);
  void finish(std::shared_ptr<Op> op, CollectiveCallback done);

  Simulator& sim_;
  fabric::FlowNetwork& net_;
  fabric::Topology& topo_;
  std::vector<fabric::NodeId> ranks_;
  std::string track_;  // profiler track, derived from the rank-0 node name
  /// Profiler keys, interned once per sink table (ProfileKeyCache).
  struct ProfileKeys {
    ProfileKeys() = default;
    ProfileKeys(ProfileSink& sink, const std::string& track)
        : track(sink.intern(track)), category(sink.intern("collectives")) {}
    ProfileKey track = kNoProfileKey;
    ProfileKey category = kNoProfileKey;
  };
  ProfileKeyCache<ProfileKeys> profile_keys_;
  State st_;
  std::deque<std::function<void()>> op_queue_;
  bool op_active_ = false;
};

}  // namespace composim::collectives
