// composim: interconnect topology graph.
//
// Nodes are endpoints or forwarding elements (GPU, CPU root complex, PCIe
// switch, memory, storage). Links are *directed* with per-direction
// capacity; addDuplexLink creates the usual full-duplex pair. Routing is
// latency-weighted Dijkstra with a cache invalidated on any mutation, so
// dynamic attach/detach (the composable part) recomputes paths lazily.
// See DESIGN.md §2.1.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/units.hpp"

namespace composim::fabric {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

constexpr NodeId kInvalidNode = -1;
constexpr LinkId kInvalidLink = -1;

enum class NodeKind {
  Gpu,
  CpuRootComplex,
  PcieSwitch,
  HostMemory,
  Storage,
  Other,
};

enum class LinkKind {
  NVLink,
  PCIe3,
  PCIe4,
  HostAdapter,     // CDFP cable between host adapter and Falcon drawer
  RootComplex,     // traversal across the CPU root complex (P2P via host)
  MemoryBus,       // CPU <-> DRAM
  Ethernet,
  Internal,        // switch-internal crossbar hop
};

const char* toString(NodeKind k);
const char* toString(LinkKind k);

struct Node {
  std::string name;
  NodeKind kind = NodeKind::Other;
};

struct LinkCounters {
  Bytes bytes = 0;          // cumulative payload carried in this direction
  std::uint64_t flows = 0;  // flows that used this link
  std::uint64_t errors = 0; // injected link errors (BMC health view)
};

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bandwidth capacity = 0.0;  // bytes/second in this direction
  SimTime latency = 0.0;     // propagation + serialization setup
  LinkKind kind = LinkKind::Internal;
  bool up = true;
  LinkCounters counters;
};

/// A resolved route: ordered directed links from src to dst.
struct Route {
  std::vector<LinkId> links;
  SimTime latency = 0.0;        // sum of link latencies
  Bandwidth bottleneck = 0.0;   // min capacity along the route
};

class Topology {
 public:
  NodeId addNode(std::string name, NodeKind kind);

  /// One directed link.
  LinkId addLink(NodeId src, NodeId dst, Bandwidth capacity, SimTime latency,
                 LinkKind kind);

  /// Full-duplex pair; returns {forward, reverse}.
  std::pair<LinkId, LinkId> addDuplexLink(NodeId a, NodeId b,
                                          Bandwidth capacityPerDirection,
                                          SimTime latency, LinkKind kind);

  /// Remove every link touching `n` in either direction (device detach).
  /// The node itself stays (ids remain stable); it simply becomes isolated.
  void isolateNode(NodeId n);

  void setLinkUp(LinkId l, bool up);

  std::size_t nodeCount() const { return nodes_.size(); }
  std::size_t linkCount() const { return links_.size(); }

  const Node& node(NodeId n) const { return nodes_.at(static_cast<std::size_t>(n)); }
  const Link& link(LinkId l) const { return links_.at(static_cast<std::size_t>(l)); }
  Link& mutableLink(LinkId l) { ++generation_; return links_.at(static_cast<std::size_t>(l)); }

  /// Counter access that does NOT invalidate the route cache.
  LinkCounters& counters(LinkId l) { return links_.at(static_cast<std::size_t>(l)).counters; }

  NodeId findNode(const std::string& name) const;

  /// Drop cached routes without touching links (bench hook: re-measure
  /// route computation against a warm topology).
  void invalidateRoutes() { ++generation_; }

  /// Shortest path by cumulative latency over up-links. Returns nullopt if
  /// unreachable. Results are cached until the topology changes.
  ///
  /// Thread-ownership: route() mutates per-instance caches (the route
  /// cache and reused Dijkstra scratch) from a const method, so a
  /// Topology is single-owner-thread for routing: the first route() call
  /// pins the owning thread and calls from any other thread throw
  /// std::logic_error. Parallel sweeps give every run a private
  /// Topology; a deliberate handoff (build here, route there) must call
  /// rebindRouteOwner() from the new owner.
  std::optional<Route> route(NodeId src, NodeId dst) const;

  /// Same contract as route(), but returns a reference into the route
  /// cache instead of a copy — the hot-path form (steady-state routing is
  /// allocation-free on cache hits). The reference is invalidated by any
  /// topology mutation and by the next route()/routeCached() call after
  /// one.
  const std::optional<Route>& routeCached(NodeId src, NodeId dst) const;

  /// Re-pin route() ownership to the calling thread. The caller is
  /// responsible for the cross-thread happens-before edge (e.g. the
  /// thread-start or join that handed the Topology over).
  void rebindRouteOwner() const;

  /// All directed links leaving `n` (includes down links). The reference
  /// is invalidated by addNode/addLink.
  const std::vector<LinkId>& linksFrom(NodeId n) const;
  /// All directed links arriving at `n` (includes down links), from the
  /// reverse-adjacency table maintained alongside `adjacency_`. The
  /// reference is invalidated by addNode/addLink.
  const std::vector<LinkId>& linksInto(NodeId n) const;

  std::uint64_t generation() const { return generation_; }

  /// Dynamic-state snapshot: per-link up flags and counters and the
  /// mutation generation. The graph structure (nodes, links, adjacency) is
  /// NOT captured — a fork rebuilds it from the same configuration and
  /// restoreState() refuses a link-count mismatch. Route cache and Dijkstra
  /// scratch are deliberately dropped on restore (they are recomputed
  /// lazily and never observable in results), and routing ownership is
  /// rebound to the restoring thread so forked workers never trip the
  /// foreign-thread guard.
  struct State {
    struct LinkState {
      bool up = true;
      LinkCounters counters;
    };
    std::vector<LinkState> links;
    std::uint64_t generation = 0;
  };

  State state() const;
  void restoreState(const State& st);

 private:
  void checkRouteOwner() const;

  /// Epoch-stamped Dijkstra from `src` into scratch_dist_/via_/stamp_,
  /// popping early at `stop_at`. Pop order is (distance, node id)
  /// ascending, so equal-cost ties always resolve the same way.
  void dijkstra(NodeId src, NodeId stop_at) const;

  std::optional<Route> computeRoute(NodeId src, NodeId dst) const;

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;  // per node: outgoing links
  std::vector<std::vector<LinkId>> reverse_adjacency_;  // per node: incoming
  std::uint64_t generation_ = 0;

  mutable std::uint64_t cache_generation_ = ~0ULL;
  mutable std::unordered_map<std::uint64_t, std::optional<Route>> route_cache_;

  // route() owner-thread pin; default id = unowned.
  mutable std::atomic<std::thread::id> route_owner_{};

  // Dijkstra scratch, reused across route() calls so the hot path stops
  // allocating dist/via/heap per call. Entries are valid only when their
  // stamp matches scratch_epoch_ (O(1) reset instead of O(nodes) refill).
  mutable std::vector<double> scratch_dist_;
  mutable std::vector<LinkId> scratch_via_;
  mutable std::vector<std::uint32_t> scratch_stamp_;
  mutable std::vector<std::pair<double, NodeId>> scratch_heap_;
  mutable std::uint32_t scratch_epoch_ = 0;
  // Last-seen sizes: reserve the result path and heap up front so
  // steady-state routing performs no incidental reallocation.
  mutable std::size_t path_watermark_ = 0;
  mutable std::size_t heap_watermark_ = 0;
};

}  // namespace composim::fabric
