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
//    protocols): each flow is capped at 62% of its route's bottleneck on
//    PCIe and 80% on a pure-NVLink route. The NVLink cap binds only on a
//    flow that has its edge to itself: broadcast/reduce fans (Fig 16's DP
//    rows) and tree or hierarchical all-reduce. A one-island ring runs two
//    channels over the same edges, so max-min sharing gives each flow half
//    an edge, below the cap, and the cap does not move its time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
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
  // In-flight flows and events hold `this`.
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

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
  enum class OpKind { AllReduce, Broadcast, Reduce };

  /// One collective, queued or running. Ops run one at a time, so the
  /// running op is the single member op_ and every ring, fan and phase
  /// continuation reaches it through `this`.
  struct Op {
    OpKind kind = OpKind::AllReduce;
    Algorithm algorithm = Algorithm::Ring;
    Bytes payload = 0;
    int root = 0;  // broadcast/reduce only
    CollectiveCallback done;
    SimTime start = 0.0;
    Bytes bytes_on_fabric = 0;
    /// Correlation id linking this op's span to the fabric flows it
    /// injects (0 while profiling is off). Assigned by beginOp.
    std::uint64_t corr = 0;
    /// Rings (or islands) of the current phase still running.
    int pending = 0;
  };

  /// One ring or binomial fan in flight: a record in a pool that this
  /// communicator owns (a vector plus a free list, kept with its
  /// capacity). Each flow's callback and the step-overhead continuation
  /// capture only [this, index], which is trivially copyable and fits
  /// std::function's local buffer, and the request vector is reused for
  /// every wave, so a warmed step allocates nothing. Those callbacks
  /// point into the communicator, so it must outlive its flows: Trainer
  /// keeps the communicators a restore retires in retired_comms_.
  struct Schedule {
    std::vector<int> members;  // ring order, or the fan's binomial order
    /// (src, dst) endpoints of the current wave: built once for a ring,
    /// per round for a fan.
    std::vector<std::pair<fabric::NodeId, fabric::NodeId>> hops;
    Bytes chunk = 0;
    int step = 0;
    int steps = 0;
    int in_flight = 0;  // chunks of the current wave not yet landed
    bool fan = false;
    bool to_root = false;  // fan direction: reduce (true) or broadcast
    /// Runs in its own event after the last step.
    std::function<void()> done;
  };

  /// Collectives enqueue like NCCL kernels on one CUDA stream: strictly
  /// in-order, one at a time per communicator.
  void enqueue(Op op);
  void startOp();
  void opFinished();

  // Profiling: ops run one at a time, so begin/end pairs nest on the
  // communicator's track; hierarchical phases nest inside the op span.
  // beginOp also draws the op's correlation id (ProfileSink::
  // newCorrelation) and stamps it on the op span as "corr"; sendWave
  // threads the same id through FlowOptions::correlation, so every fabric
  // flow of every phase links back to the collective that issued it.
  void beginOp();
  void beginPhase(const char* name);
  void endPhase();

  /// Greedy NVLink island of every rank into island_of_ (the grouping
  /// nvlinkIslands returns); yields {islands, islands of two or more}.
  std::pair<int, int> labelIslands() const;
  /// ringOrder into `order`, reusing its capacity.
  void orderRing(const std::vector<int>& members, std::vector<int>& order) const;

  void runAllReduce();
  void runRing(const std::vector<int>& members, Bytes chunk, int steps,
               std::function<void()> done);
  void runFan(int root, Bytes bytes, bool toRoot, std::function<void()> done);
  // Hierarchical all-reduce: intra-island rings, then a leader ring, then
  // intra-island broadcast rings; each phase starts the next.
  void runHierarchical();
  void hierarchicalLeaderRing();
  void hierarchicalBroadcast();

  std::uint32_t acquireSchedule();
  /// Start schedule `s`'s current step, or end it after the last one.
  void runStep(std::uint32_t s);
  /// Inject the current wave of schedule `s` as a single batched arrival
  /// — one solve epoch for the whole wave instead of one per flow
  /// (FlowNetwork::startWave).
  void sendWave(std::uint32_t s);
  void chunkLanded(std::uint32_t s);
  void endSchedule(std::uint32_t s);
  void finish();

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
  Op op_;  // the running op while op_active_
  std::deque<Op> op_queue_;  // ops waiting behind it
  bool op_active_ = false;
  std::vector<int> everyone_;  // 0 .. size()-1
  std::vector<Schedule> schedules_;
  std::vector<std::uint32_t> free_schedules_;
  std::vector<fabric::FlowRequest> wave_;  // reused by every sendWave
  std::vector<std::vector<int>> islands_;  // the running hierarchical op's
  mutable std::vector<int> island_of_;     // labelIslands scratch
};

}  // namespace composim::collectives
