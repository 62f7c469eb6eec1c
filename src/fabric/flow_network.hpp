// composim: fluid flow model over the topology.
//
// Concurrent transfers share links under max-min fairness (progressive
// filling), the standard fluid approximation used by network simulators
// such as SimGrid. Rates are recomputed whenever a flow starts or finishes
// and the next completion event is rescheduled. Per-link byte counters are
// advanced continuously so telemetry can sample instantaneous PCIe traffic
// exactly the way the Falcon management interface reports port throughput.
//
// Recomputation is *incremental* (SimGrid-style lazy updates): a
// persistent flow<->link bipartite index lets each arrival/departure
// re-solve only the connected component of flows that transitively share
// a link with the change. Flows in untouched components keep their rates,
// their accrued progress, and their projected completion times. Projected
// completions live in an indexed min-heap that is updated only for flows
// whose rate actually changed, so the next-completion lookup is O(1) and
// progress advancement walks an active-set of flowing transfers only.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/topology.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"

namespace composim::fabric {

using FlowId = std::uint64_t;
constexpr FlowId kInvalidFlow = 0;

enum class FlowStatus { Completed, Failed };

struct FlowResult {
  FlowStatus status = FlowStatus::Completed;
  Bytes bytes = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
  SimTime duration() const { return end - start; }
  /// Achieved goodput (bytes / duration); zero for instantaneous flows.
  Bandwidth throughput() const {
    const SimTime d = duration();
    return d > 0.0 ? static_cast<Bandwidth>(bytes) / d : 0.0;
  }
};

using FlowCallback = std::function<void(const FlowResult&)>;

struct FlowOptions {
  /// Cap on this flow's rate regardless of link shares (e.g. a DMA copy
  /// engine limit). Infinity = no cap.
  Bandwidth maxRate = std::numeric_limits<Bandwidth>::infinity();
  /// Extra fixed latency added before data starts moving (software stack,
  /// doorbell, DMA setup).
  SimTime extraLatency = 0.0;
  /// Label recorded in per-flow accounting (for tests/traces).
  std::string tag;
  /// Causal correlation id stamped on the flow's profile span as "corr":
  /// the issuer (e.g. a Communicator op) allocates one id from
  /// ProfileSink::newCorrelation(), records it on its own span, and
  /// threads it here so analysis can join every flow back to the
  /// operation that injected it. 0 (default) = uncorrelated.
  std::uint64_t correlation = 0;
};

/// One transfer in a batched arrival (see FlowNetwork::startFlows).
struct FlowRequest {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bytes bytes = 0;
  FlowCallback done;
  FlowOptions options;
};

class FlowNetwork {
 public:
  FlowNetwork(Simulator& sim, Topology& topo) : sim_(sim), topo_(topo) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Start a transfer of `bytes` from node `src` to node `dst`. The
  /// callback fires when the last byte arrives (or on failure). Transfers
  /// between the same node complete after latency only. When no route
  /// exists (device detached, link down), the transfer fails soft: the
  /// callback fires with Failed status — like a DMA engine reporting an
  /// unreachable endpoint — and kInvalidFlow is returned.
  FlowId startFlow(NodeId src, NodeId dst, Bytes bytes, FlowCallback done,
                   FlowOptions options = {});

  /// Same-timestamp arrival coalescer: admit every request, then run ONE
  /// rate recomputation over the union of touched components instead of
  /// one per flow — the hot path for collective setup, where a ring/fan
  /// step injects N flows at the same instant. Results are bit-identical
  /// to N serial startFlow() calls (the intermediate solves a serial
  /// arrival sequence performs at one timestamp are transient and fully
  /// overwritten by the last one); only the recomputation/solve counters
  /// differ. Returned ids are positionally aligned with `requests`
  /// (kInvalidFlow for unroutable entries, which still fail soft).
  std::vector<FlowId> startFlows(std::vector<FlowRequest> requests);

  /// Abort an in-flight flow; its callback fires with Failed status.
  /// Returns false if the flow is unknown (already finished). Latency-only
  /// flows (zero-byte or same-node) are cancellable too: their scheduled
  /// completion is revoked and the callback fires Failed instead.
  bool cancelFlow(FlowId id);

  /// Batched teardown: cancel every listed flow with a single rate
  /// recomputation (collective abort). Unknown ids are skipped; returns
  /// the number actually cancelled. Bit-identical to serial cancelFlow()
  /// calls at the same timestamp.
  std::size_t cancelFlows(const std::vector<FlowId>& ids);

  /// Fail every flow crossing `link` (used for link-down injection) and
  /// mark the link down in the topology. Victims come straight from the
  /// link->flows index (no scan of unrelated flows).
  void failLink(LinkId link);

  /// Re-derive flow rates after an external topology mutation (capacity
  /// change, link restored). Routes of in-flight flows are not changed —
  /// like real DMA transfers, they finish on the path they started on.
  void notifyTopologyChanged();

  std::size_t activeFlows() const { return id_to_slot_.size(); }

  /// Instantaneous rate of a flow (bytes/s); 0 if unknown.
  Bandwidth flowRate(FlowId id) const;

  /// Total payload bytes carried so far in the given link direction.
  Bytes linkBytes(LinkId l) const { return topo_.link(l).counters.bytes; }

  std::uint64_t flowsStarted() const { return flows_started_; }
  std::uint64_t flowsCompleted() const { return flows_completed_; }
  std::uint64_t flowsFailed() const { return flows_failed_; }

  /// Number of max-min rate recomputations (exposed for the ablation bench).
  std::uint64_t rateRecomputations() const { return recomputations_; }

  /// Individual connected-component solves performed (each recomputation
  /// solves one component incrementally, or all of them in full mode).
  std::uint64_t componentSolves() const { return component_solves_; }

  /// Use naive equal-split instead of max-min fairness (ablation only).
  void setNaiveSharing(bool naive) { naive_sharing_ = naive; }

  /// Incremental solving (default on) recomputes only the connected
  /// component touched by a change; full mode re-solves every component on
  /// every change. Both produce bit-identical rates and completion times —
  /// full mode exists as the reference for the equivalence test suite and
  /// as an ablation knob.
  void setIncrementalSolve(bool on) { incremental_ = on; }

  /// Quiescent-point snapshot: valid only with no flows in flight (active
  /// or latency-only). Captures the slot allocator (count + free-list
  /// order — future FlowIds and slot reuse must match a cold run exactly),
  /// the id/epoch counters and the cumulative statistics. Solver scratch
  /// restores to the never-touched encoding: all stale-entry tests compare
  /// stamps for equality against a pre-incremented epoch, so zeroed
  /// scratch in a fork is indistinguishable from stale entries in the
  /// original. state()/restoreState() throw std::logic_error when flows
  /// are still in flight.
  struct State {
    std::uint32_t slot_count = 0;
    std::vector<std::uint32_t> free_slots;
    std::uint64_t epoch = 0;
    std::uint64_t solve_epoch = 0;
    FlowId next_id = 1;
    SimTime last_update = 0.0;
    std::uint64_t flows_started = 0;
    std::uint64_t flows_completed = 0;
    std::uint64_t flows_failed = 0;
    std::uint64_t recomputations = 0;
    std::uint64_t component_solves = 0;
  };

  State state() const;
  void restoreState(const State& st);

 private:
  static constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

  struct ActiveFlow {
    FlowId id = kInvalidFlow;
    std::vector<LinkId> links;
    double remaining = 0.0;  // bytes still to transfer
    Bandwidth rate = 0.0;
    Bandwidth max_rate = std::numeric_limits<Bandwidth>::infinity();
    Bytes total = 0;
    SimTime start = 0.0;
    SimTime arrival_latency = 0.0;  // applied at completion
    // Absolute completion time at the current rate; infinity when stalled.
    // Invariant under constant rate, so it is recomputed only on rate
    // changes and never drifts with progress advancement.
    SimTime projected_finish = std::numeric_limits<SimTime>::infinity();
    FlowCallback done;
    std::string tag;
    std::uint32_t heap_pos = kNoPos;    // position in completion_heap_
    std::uint32_t active_pos = kNoPos;  // position in active_ (rate > 0)
    AsyncSpanId span = kInvalidAsyncSpan;
    // Contention-free reference duration (bytes at the route-bottleneck /
    // maxRate cap): the closing span reports actual - ideal as
    // "contended_s", the per-flow fabric-contention figure analysis
    // aggregates. Tracked only while profiling (0 otherwise).
    SimTime ideal_s = 0.0;
  };

  /// Latency-only transfer (zero bytes or same-node): a cancellable
  /// scheduled completion, tracked so the returned FlowId stays live.
  struct LatencyFlow {
    EventId event = kInvalidEvent;
    Bytes bytes = 0;
    SimTime start = 0.0;
    FlowCallback done;
    AsyncSpanId span = kInvalidAsyncSpan;
  };

  void advanceProgress();
  void ensureLinkTables();
  // Admission helpers shared by startFlow and startFlows. The caller runs
  // advanceProgress()/ensureLinkTables() before any byte-flow admission
  // and resolveAfterChange(seeds) after the batch.
  FlowId admitUnroutable(NodeId src, NodeId dst, FlowCallback done);
  FlowId admitLatencyOnly(SimTime latency, NodeId src, NodeId dst, Bytes bytes,
                          FlowCallback done, const std::string& tag,
                          std::uint64_t correlation);
  FlowId admitByteFlow(const Route& route, NodeId src, NodeId dst, Bytes bytes,
                       FlowCallback done, FlowOptions options,
                       std::vector<LinkId>& seeds);
  bool cancelLatencyFlow(FlowId id);
  /// Open a profiling span for a flow (no-op when profiling is off).
  /// `correlation` != 0 is recorded as the span's "corr" arg.
  AsyncSpanId beginFlowSpan(NodeId src, NodeId dst, Bytes bytes,
                            const std::string& tag, std::uint64_t correlation);
  /// Publish utilization/queue counters for the links in comp_links_.
  void profileLinkCounters(ProfileSink& sink);

  /// Profiler keys, interned once per sink table (ProfileKeyCache).
  struct ProfileKeys {
    ProfileKeys() = default;
    explicit ProfileKeys(ProfileSink& sink);
    ProfileKey fabric = kNoProfileKey;
    ProfileKey flow = kNoProfileKey;
    ProfileKey unroutable = kNoProfileKey;
    /// Each link's "link:<src>-><dst>" (util_pct, flows) counter keys,
    /// by LinkId, interned on the link's first publish.
    std::vector<std::pair<CounterKey, CounterKey>> links;
  };
  /// Re-solve the connected component(s) reachable from `seeds`
  /// (or everything, in full/reference mode). Counts one recomputation.
  void resolveAfterChange(const std::vector<LinkId>& seeds);
  void resolveAllComponents();
  void collectComponent(LinkId seed);
  void solveComponent();
  void applyRate(std::uint32_t slot, Bandwidth rate);
  void scheduleNextCompletion();
  void onCompletionEvent();
  void onLatencyFlowDone(FlowId id);
  void finishFlow(std::uint32_t slot, FlowStatus status);

  // Indexed min-heap over projected_finish (ties by FlowId).
  bool heapLess(std::uint32_t a, std::uint32_t b) const;
  void heapSiftUp(std::size_t i);
  void heapSiftDown(std::size_t i);
  void heapUpsert(std::uint32_t slot);
  void heapErase(std::uint32_t slot);
  void activeErase(std::uint32_t slot);

  Simulator& sim_;
  Topology& topo_;

  // Flow storage: dense reusable slots + id lookup for the public API.
  std::vector<ActiveFlow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<FlowId, std::uint32_t> id_to_slot_;
  std::unordered_map<FlowId, LatencyFlow> latency_flows_;

  // Persistent bipartite index, dense by LinkId. Each per-link list is
  // kept in ascending FlowId order (append monotonic ids, order-preserving
  // erase) so solver fix order is deterministic.
  std::vector<std::vector<std::uint32_t>> link_flows_;

  // Reused solver scratch, dense by LinkId / slot (no per-call hashing).
  std::vector<double> link_residual_;
  std::vector<std::uint32_t> link_unfixed_;
  std::vector<std::uint64_t> link_epoch_;
  std::vector<std::uint64_t> flow_epoch_;  // by slot: component membership
  std::vector<std::uint64_t> flow_fixed_;  // by slot: solve round fixed in
  std::vector<LinkId> comp_links_;         // BFS worklist + component links
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::uint32_t> comp_capped_;  // component flows with finite cap
  std::uint64_t epoch_ = 0;
  std::uint64_t solve_epoch_ = 0;

  std::vector<std::uint32_t> active_;           // slots with rate > 0
  std::vector<std::uint32_t> completion_heap_;  // slots by projected_finish
  std::vector<std::uint32_t> done_scratch_;     // completion-event reuse
  std::vector<LinkId> seed_scratch_;
  std::vector<LinkId> arrival_seeds_;           // startFlow(s) batch seeds
  ProfileKeyCache<ProfileKeys> profile_keys_;   // profiling only

  FlowId next_id_ = 1;
  SimTime last_update_ = 0.0;
  EventId completion_event_ = kInvalidEvent;
  SimTime completion_time_ = std::numeric_limits<SimTime>::infinity();
  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_failed_ = 0;
  std::uint64_t recomputations_ = 0;
  std::uint64_t component_solves_ = 0;
  bool naive_sharing_ = false;
  bool incremental_ = true;
};

}  // namespace composim::fabric
