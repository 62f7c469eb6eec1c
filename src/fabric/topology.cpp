#include "fabric/topology.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace composim::fabric {

const char* toString(NodeKind k) {
  switch (k) {
    case NodeKind::Gpu: return "GPU";
    case NodeKind::CpuRootComplex: return "RootComplex";
    case NodeKind::PcieSwitch: return "PCIeSwitch";
    case NodeKind::HostMemory: return "HostMemory";
    case NodeKind::Storage: return "Storage";
    case NodeKind::Other: return "Other";
  }
  return "?";
}

const char* toString(LinkKind k) {
  switch (k) {
    case LinkKind::NVLink: return "NVLink";
    case LinkKind::PCIe3: return "PCI-e 3.0";
    case LinkKind::PCIe4: return "PCI-e 4.0";
    case LinkKind::HostAdapter: return "HostAdapter";
    case LinkKind::RootComplex: return "RootComplex";
    case LinkKind::MemoryBus: return "MemoryBus";
    case LinkKind::Ethernet: return "Ethernet";
    case LinkKind::Internal: return "Internal";
  }
  return "?";
}

NodeId Topology::addNode(std::string name, NodeKind kind) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{std::move(name), kind});
  adjacency_.emplace_back();
  reverse_adjacency_.emplace_back();
  ++generation_;
  return id;
}

LinkId Topology::addLink(NodeId src, NodeId dst, Bandwidth capacity,
                         SimTime latency, LinkKind kind) {
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= nodes_.size() ||
      static_cast<std::size_t>(dst) >= nodes_.size()) {
    throw std::out_of_range("Topology::addLink: bad node id");
  }
  if (src == dst) throw std::invalid_argument("Topology::addLink: self-loop");
  if (capacity <= 0.0) throw std::invalid_argument("Topology::addLink: capacity must be > 0");
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{src, dst, capacity, latency, kind, true, {}});
  adjacency_[static_cast<std::size_t>(src)].push_back(id);
  reverse_adjacency_[static_cast<std::size_t>(dst)].push_back(id);
  ++generation_;
  return id;
}

std::pair<LinkId, LinkId> Topology::addDuplexLink(NodeId a, NodeId b,
                                                  Bandwidth capacityPerDirection,
                                                  SimTime latency, LinkKind kind) {
  const LinkId fwd = addLink(a, b, capacityPerDirection, latency, kind);
  const LinkId rev = addLink(b, a, capacityPerDirection, latency, kind);
  return {fwd, rev};
}

void Topology::isolateNode(NodeId n) {
  for (LinkId l : adjacency_.at(static_cast<std::size_t>(n))) {
    links_[static_cast<std::size_t>(l)].up = false;
  }
  for (LinkId l : reverse_adjacency_.at(static_cast<std::size_t>(n))) {
    links_[static_cast<std::size_t>(l)].up = false;
  }
  ++generation_;
}

void Topology::setLinkUp(LinkId l, bool up) {
  links_.at(static_cast<std::size_t>(l)).up = up;
  ++generation_;
}

NodeId Topology::findNode(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<NodeId>(i);
  }
  return kInvalidNode;
}

const std::vector<LinkId>& Topology::linksFrom(NodeId n) const {
  return adjacency_.at(static_cast<std::size_t>(n));
}

const std::vector<LinkId>& Topology::linksInto(NodeId n) const {
  return reverse_adjacency_.at(static_cast<std::size_t>(n));
}

Topology::State Topology::state() const {
  State st;
  st.links.reserve(links_.size());
  for (const Link& l : links_) st.links.push_back({l.up, l.counters});
  st.generation = generation_;
  return st;
}

void Topology::restoreState(const State& st) {
  if (st.links.size() != links_.size()) {
    throw std::logic_error(
        "Topology::restoreState: link count mismatch (snapshot taken from a "
        "differently built topology)");
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].up = st.links[i].up;
    links_[i].counters = st.links[i].counters;
  }
  generation_ = st.generation;
  // Cached routes and Dijkstra scratch may predate the restored link
  // states; both are recomputed lazily.
  route_cache_.clear();
  cache_generation_ = ~0ULL;
  scratch_epoch_ = 0;
  std::fill(scratch_stamp_.begin(), scratch_stamp_.end(), 0u);
  // The fork's worker thread is the new routing owner (see checkRouteOwner).
  rebindRouteOwner();
}

void Topology::rebindRouteOwner() const {
  route_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void Topology::checkRouteOwner() const {
  // The route cache and Dijkstra scratch are mutated from this const
  // method without locks; correctness rests on single-owner-thread use
  // (each parallel sweep run owns a private Topology). Pin the first
  // caller and fail loudly — instead of racing silently — on any other.
  const std::thread::id me = std::this_thread::get_id();
  std::thread::id owner = route_owner_.load(std::memory_order_relaxed);
  if (owner == std::thread::id()) {
    if (route_owner_.compare_exchange_strong(owner, me,
                                             std::memory_order_relaxed)) {
      return;
    }
    // Lost the pin race: `owner` now holds the winner's id.
  }
  if (owner != me) {
    throw std::logic_error(
        "Topology::route: called from a thread other than the routing "
        "owner; give each worker its own Topology or call "
        "rebindRouteOwner() after a handoff");
  }
}

void Topology::dijkstra(NodeId src, NodeId stop_at) const {
  // dist/via/heap are per-instance scratch reused across calls; a slot is
  // valid only when its stamp matches the current epoch, so "reset" is
  // one counter bump instead of an O(nodes) refill.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (scratch_stamp_.size() < nodes_.size()) {
    scratch_dist_.resize(nodes_.size(), kInf);
    scratch_via_.resize(nodes_.size(), kInvalidLink);
    scratch_stamp_.resize(nodes_.size(), 0);
  }
  if (++scratch_epoch_ == 0) {  // epoch wrap: stale stamps could collide
    std::fill(scratch_stamp_.begin(), scratch_stamp_.end(), 0u);
    scratch_epoch_ = 1;
  }
  const auto distAt = [&](NodeId n) {
    const auto i = static_cast<std::size_t>(n);
    return scratch_stamp_[i] == scratch_epoch_ ? scratch_dist_[i] : kInf;
  };
  const auto touch = [&](NodeId n, double d, LinkId via) {
    const auto i = static_cast<std::size_t>(n);
    scratch_stamp_[i] = scratch_epoch_;
    scratch_dist_[i] = d;
    scratch_via_[i] = via;
  };

  using QE = std::pair<double, NodeId>;
  scratch_heap_.clear();
  scratch_heap_.reserve(heap_watermark_);
  const auto push = [&](QE e) {
    scratch_heap_.push_back(e);
    std::push_heap(scratch_heap_.begin(), scratch_heap_.end(), std::greater<>{});
    heap_watermark_ = std::max(heap_watermark_, scratch_heap_.size());
  };
  touch(src, 0.0, kInvalidLink);
  push({0.0, src});
  // Ties broken deterministically by node id.
  while (!scratch_heap_.empty()) {
    std::pop_heap(scratch_heap_.begin(), scratch_heap_.end(), std::greater<>{});
    const auto [d, u] = scratch_heap_.back();
    scratch_heap_.pop_back();
    if (d > distAt(u)) continue;
    if (u == stop_at) break;
    for (LinkId lid : adjacency_[static_cast<std::size_t>(u)]) {
      const Link& l = links_[static_cast<std::size_t>(lid)];
      if (!l.up) continue;
      const double nd = d + l.latency;
      if (nd < distAt(l.dst)) {
        touch(l.dst, nd, lid);
        push({nd, l.dst});
      }
    }
  }
}

std::optional<Route> Topology::computeRoute(NodeId src, NodeId dst) const {
  if (src == dst) return Route{};  // empty route: same endpoint
  dijkstra(src, dst);
  const auto d = static_cast<std::size_t>(dst);
  if (scratch_stamp_[d] != scratch_epoch_ || scratch_via_[d] == kInvalidLink) {
    return std::nullopt;
  }
  Route r;
  r.links.reserve(path_watermark_);
  for (NodeId cur = dst; cur != src;) {
    const LinkId lid = scratch_via_[static_cast<std::size_t>(cur)];
    r.links.push_back(lid);
    cur = links_[static_cast<std::size_t>(lid)].src;
  }
  std::reverse(r.links.begin(), r.links.end());
  r.bottleneck = std::numeric_limits<double>::infinity();
  for (LinkId lid : r.links) {
    const Link& l = links_[static_cast<std::size_t>(lid)];
    r.latency += l.latency;
    r.bottleneck = std::min(r.bottleneck, l.capacity);
  }
  path_watermark_ = std::max(path_watermark_, r.links.size());
  return r;
}

const std::optional<Route>& Topology::routeCached(NodeId src, NodeId dst) const {
  static const std::optional<Route> kNoRoute;
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= nodes_.size() ||
      static_cast<std::size_t>(dst) >= nodes_.size()) {
    return kNoRoute;
  }
  checkRouteOwner();
  if (cache_generation_ != generation_) {
    route_cache_.clear();
    cache_generation_ = generation_;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  if (auto it = route_cache_.find(key); it != route_cache_.end()) return it->second;
  const auto [it, inserted] = route_cache_.emplace(key, computeRoute(src, dst));
  (void)inserted;
  return it->second;
}

std::optional<Route> Topology::route(NodeId src, NodeId dst) const {
  return routeCached(src, dst);
}

}  // namespace composim::fabric
