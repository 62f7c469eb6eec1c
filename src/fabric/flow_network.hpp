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
// completions live in an indexed min-heap (sim/indexed_heap.hpp, the
// event kernel's sift code) that is updated only for flows whose rate
// actually changed, so the next-completion lookup is O(1) and progress
// advancement walks an active-set of flowing transfers only.
//
// Deliveries are batched: every flow that completes in one completion
// event and arrives at the same time reaches its callback through ONE
// simulator event, which invokes the callbacks in flow-id order. That is
// the order one event per flow would give, since such events would be
// scheduled back to back with nothing in between (DESIGN.md §2.1.3).
// Batches live in a pool that keeps its capacity, the batch event's
// capture fits std::function's local buffer, and a freed flow slot keeps
// its link vector, so a warmed wave admitted by startWave allocates
// nothing.
//
// A byte flow lives only in its slot: flows end by completing or by
// failLink, and every lookup by FlowId (flowRate, failLink's victim
// check) reads the slots. A latency-only flow (zero bytes or same node)
// takes no slot; it is one scheduled event that owns its callback.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
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
  /// Name of the flow's profiling span ("flow" when empty). Read only
  /// during admission, so the viewed string need only outlive the call
  /// that starts the flow.
  std::string_view tag;
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

  /// startFlows for a caller that reuses one request vector wave after
  /// wave: each request's callback is moved out, the vector and its
  /// capacity stay with the caller, and no ids are returned, so a warmed
  /// wave allocates nothing here.
  void startWave(std::vector<FlowRequest>& requests);

  /// Fail every flow crossing `link` (used for link-down injection) and
  /// mark the link down in the topology. Victims come straight from the
  /// link->flows index (no scan of unrelated flows).
  void failLink(LinkId link);

  /// Re-derive flow rates after an external topology mutation (capacity
  /// change, link restored). Routes of in-flight flows are not changed —
  /// like real DMA transfers, they finish on the path they started on.
  void notifyTopologyChanged();

  /// Byte flows in flight (latency-only flows hold no slot).
  std::size_t activeFlows() const {
    return slots_.size() - st_.free_slots.size();
  }

  /// Instantaneous rate of a flow (bytes/s); 0 if unknown or finished.
  /// Scans the slots: for tests and benches, not for the hot path.
  Bandwidth flowRate(FlowId id) const;

  /// Total payload bytes carried so far in the given link direction.
  Bytes linkBytes(LinkId l) const { return topo_.link(l).counters.bytes; }

  std::uint64_t flowsStarted() const { return st_.flows_started; }
  std::uint64_t flowsCompleted() const { return st_.flows_completed; }
  std::uint64_t flowsFailed() const { return st_.flows_failed; }

  /// Number of max-min rate recomputations (read by the work counters).
  std::uint64_t rateRecomputations() const { return st_.recomputations; }

  /// Individual connected-component solves performed (each recomputation
  /// solves one component incrementally, or all of them in full mode).
  std::uint64_t componentSolves() const { return st_.component_solves; }

  /// Incremental solving (default on) recomputes only the connected
  /// component touched by a change; full mode re-solves every component on
  /// every change. Both produce bit-identical rates and completion times —
  /// full mode exists as the reference for the equivalence test suite.
  void setIncrementalSolve(bool on) { incremental_ = on; }

  /// Quiescent-point snapshot: valid only with no flows in flight (active,
  /// latency-only or awaiting a batched delivery). Captures the slot
  /// allocator (count + free-list order — future FlowIds and slot reuse
  /// must match a cold run exactly), the id/epoch counters and the
  /// cumulative statistics. Solver scratch
  /// restores to the never-touched encoding: all stale-entry tests compare
  /// stamps for equality against a pre-incremented epoch, so zeroed
  /// scratch in a fork is indistinguishable from stale entries in the
  /// original. state()/restoreState() throw std::logic_error when flows
  /// are still in flight.
  struct State {
    std::uint32_t slot_count = 0;
    std::vector<std::uint32_t> free_slots;
    std::uint64_t epoch = 0;        // component-membership stamp
    std::uint64_t solve_epoch = 0;  // solve-round stamp
    FlowId next_id = 1;
    SimTime last_update = 0.0;      // progress last advanced to
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
    std::uint32_t heap_pos = kNoPos;    // position in completion_heap_
    std::uint32_t active_pos = kNoPos;  // position in active_ (rate > 0)
    AsyncSpanId span = kInvalidAsyncSpan;
    // Contention-free reference duration (bytes at the route-bottleneck /
    // maxRate cap): the closing span reports actual - ideal as
    // "contended_s", the per-flow fabric-contention figure analysis
    // aggregates. Tracked only while profiling (0 otherwise).
    SimTime ideal_s = 0.0;
  };

  void advanceProgress();
  void ensureLinkTables();
  // Admission helpers shared by startFlow and startFlows. The caller runs
  // advanceProgress()/ensureLinkTables() before any byte-flow admission
  // and resolveAfterChange(seeds) after the batch.
  FlowId admitUnroutable(NodeId src, NodeId dst, FlowCallback done);
  FlowId admitLatencyOnly(const Route& route, NodeId src, NodeId dst,
                          Bytes bytes, FlowCallback done,
                          const FlowOptions& options);
  FlowId admitByteFlow(const Route& route, NodeId src, NodeId dst, Bytes bytes,
                       FlowCallback done, const FlowOptions& options,
                       std::vector<LinkId>& seeds);
  /// Open a profiling span for a flow (no-op when profiling is off).
  /// `correlation` != 0 is recorded as the span's "corr" arg.
  AsyncSpanId beginFlowSpan(NodeId src, NodeId dst, Bytes bytes,
                            std::string_view tag, std::uint64_t correlation);
  /// Admit a same-timestamp batch (startFlows, startWave); appends one id
  /// per request to `ids` when given.
  void admitBatch(std::vector<FlowRequest>& requests, std::vector<FlowId>* ids);
  /// Publish link `l`'s utilization/queue counters.
  void profileLinkCounters(ProfileSink& sink, LinkId l);

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
  void finishFlow(std::uint32_t slot, FlowStatus status);
  /// Append a completed flow's callback to the current wave's batch for
  /// arrival time `at`, opening the batch on first use.
  void queueDelivery(SimTime at, FlowCallback done, const FlowResult& result);
  /// Batch event: invoke batch `b`'s callbacks in order, then free it.
  void deliverBatch(std::uint32_t b);
  bool inFlight() const {
    return activeFlows() != 0 || latency_in_flight_ != 0 ||
           free_batches_.size() != batches_.size();
  }

  // The completion heap's order, (projected_finish, FlowId), and position
  // hook for sim/indexed_heap.hpp.
  struct FinishOrder {
    const FlowNetwork* net;
    bool operator()(std::uint32_t a, std::uint32_t b) const;
  };
  struct FinishPlace {
    FlowNetwork* net;
    void operator()(std::uint32_t slot, std::size_t pos) const {
      net->slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
    }
  };
  /// Take `slot` out of the completion heap if it is there.
  void eraseFinish(std::uint32_t slot);
  void activeErase(std::uint32_t slot);

  Simulator& sim_;
  Topology& topo_;

  // Flow storage: dense reusable slots; a free slot's id is kInvalidFlow.
  std::vector<ActiveFlow> slots_;
  // Fork-carried counters and the free-slot list (reuse order). Its
  // slot_count is stale here: state() fills it from slots_.
  State st_;
  std::uint64_t latency_in_flight_ = 0;  // scheduled latency-only flows

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

  std::vector<std::uint32_t> active_;           // slots with rate > 0
  std::vector<std::uint32_t> completion_heap_;  // slots, by FinishOrder
  std::vector<std::uint32_t> done_scratch_;     // completion-event reuse
  std::vector<LinkId> seed_scratch_;
  std::vector<LinkId> arrival_seeds_;           // startFlow(s) batch seeds
  std::vector<const std::optional<Route>*> batch_routes_;  // admitBatch
  ProfileKeyCache<ProfileKeys> profile_keys_;   // profiling only

  // Delivery batches: a pool indexed by the batch events, plus the batches
  // the current completion wave opened, in order of first appearance.
  struct Delivery {
    FlowCallback done;
    FlowResult result;
  };
  struct DeliveryBatch {
    SimTime at = 0.0;
    std::vector<Delivery> items;
  };
  std::vector<DeliveryBatch> batches_;
  std::vector<std::uint32_t> free_batches_;
  std::vector<std::uint32_t> wave_batches_;

  EventId completion_event_ = kInvalidEvent;
  SimTime completion_time_ = std::numeric_limits<SimTime>::infinity();
  bool incremental_ = true;
};

}  // namespace composim::fabric
