#include "fabric/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace composim::fabric {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

FlowNetwork::ProfileKeys::ProfileKeys(ProfileSink& sink)
    : fabric(sink.intern("fabric")),
      flow(sink.intern("flow")),
      unroutable(sink.intern("flow-unroutable")) {}

AsyncSpanId FlowNetwork::beginFlowSpan(NodeId src, NodeId dst, Bytes bytes,
                                       const std::string& tag,
                                       std::uint64_t correlation) {
  ProfileSink* sink = sim_.profiler();
  if (sink == nullptr) return kInvalidAsyncSpan;
  const ProfileKeys& keys = profile_keys_.get(*sink);
  ProfileArgs args{{"src", topo_.node(src).name},
                   {"dst", topo_.node(dst).name},
                   {"bytes", bytes}};
  if (correlation != 0) args.push_back({"corr", correlation});
  return sink->beginAsyncSpan(keys.fabric,
                              tag.empty() ? keys.flow : sink->intern(tag),
                              args);
}

FlowId FlowNetwork::admitUnroutable(NodeId src, NodeId dst, FlowCallback done) {
  ++flows_started_;
  ++flows_failed_;
  if (ProfileSink* sink = sim_.profiler()) {
    const ProfileKeys& keys = profile_keys_.get(*sink);
    sink->instant(keys.fabric, keys.unroutable,
                  {{"src", topo_.node(src).name},
                   {"dst", topo_.node(dst).name}});
  }
  FlowResult r{FlowStatus::Failed, 0, sim_.now(), sim_.now()};
  sim_.schedule(0.0, [cb = std::move(done), r] {
    if (cb) cb(r);
  });
  return kInvalidFlow;
}

FlowId FlowNetwork::admitLatencyOnly(SimTime latency, NodeId src, NodeId dst,
                                     Bytes bytes, FlowCallback done,
                                     const std::string& tag,
                                     std::uint64_t correlation) {
  // Control message or same-node transfer: latency only. Tracked as a
  // cancellable scheduled event so the returned id stays live until the
  // callback fires (cancelFlow() revokes it and reports Failed).
  const FlowId id = next_id_++;
  ++flows_started_;
  LatencyFlow lf;
  lf.bytes = bytes;
  lf.start = sim_.now();
  lf.done = std::move(done);
  lf.span = beginFlowSpan(src, dst, bytes, tag, correlation);
  lf.event = sim_.schedule(latency, [this, id] { onLatencyFlowDone(id); });
  latency_flows_.emplace(id, std::move(lf));
  return id;
}

FlowId FlowNetwork::admitByteFlow(const Route& route, NodeId src, NodeId dst,
                                  Bytes bytes, FlowCallback done,
                                  FlowOptions options,
                                  std::vector<LinkId>& seeds) {
  const FlowId id = next_id_++;
  ++flows_started_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    flow_epoch_.push_back(0);
    flow_fixed_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  ActiveFlow& f = slots_[slot];
  f.id = id;
  f.links = route.links;
  f.remaining = static_cast<double>(bytes);
  f.rate = 0.0;
  f.max_rate = options.maxRate;
  f.total = bytes;
  f.start = sim_.now();
  f.arrival_latency = route.latency + options.extraLatency;
  f.projected_finish = kInf;
  f.done = std::move(done);
  f.tag = std::move(options.tag);
  f.heap_pos = kNoPos;
  f.active_pos = kNoPos;
  f.span = beginFlowSpan(src, dst, bytes, f.tag, options.correlation);
  if (f.span != kInvalidAsyncSpan) {
    // Contention-free reference: the whole payload at the uncontended
    // route bottleneck (still respecting the flow's own rate cap).
    const Bandwidth ideal_rate = std::min(options.maxRate, route.bottleneck);
    if (ideal_rate > 0.0 && std::isfinite(ideal_rate)) {
      f.ideal_s = static_cast<double>(bytes) / ideal_rate;
    }
  }
  id_to_slot_.emplace(id, slot);
  for (LinkId l : f.links) {
    ++topo_.counters(l).flows;
    // Ids are monotonic, so appending keeps the list id-sorted.
    link_flows_[static_cast<std::size_t>(l)].push_back(slot);
  }
  seeds.insert(seeds.end(), f.links.begin(), f.links.end());
  return id;
}

FlowId FlowNetwork::startFlow(NodeId src, NodeId dst, Bytes bytes,
                              FlowCallback done, FlowOptions options) {
  const auto& route = topo_.routeCached(src, dst);
  if (!route) return admitUnroutable(src, dst, std::move(done));
  if (bytes <= 0 || route->links.empty()) {
    return admitLatencyOnly(route->latency + options.extraLatency, src, dst,
                            bytes, std::move(done), options.tag,
                            options.correlation);
  }
  advanceProgress();
  ensureLinkTables();
  arrival_seeds_.clear();
  const FlowId id = admitByteFlow(*route, src, dst, bytes, std::move(done),
                                  std::move(options), arrival_seeds_);
  resolveAfterChange(arrival_seeds_);
  scheduleNextCompletion();
  return id;
}

std::vector<FlowId> FlowNetwork::startFlows(std::vector<FlowRequest> requests) {
  std::vector<FlowId> ids;
  ids.reserve(requests.size());
  if (requests.empty()) return ids;
  // Route everything first (cache entries have stable addresses across
  // inserts), so the solver prep — advanceProgress in particular, whose
  // per-call byte-counter rounding must match the serial path — runs
  // exactly once and only when a byte flow is actually admitted.
  std::vector<const std::optional<Route>*> routes;
  routes.reserve(requests.size());
  bool any_bytes = false;
  for (const FlowRequest& rq : requests) {
    const auto& r = topo_.routeCached(rq.src, rq.dst);
    routes.push_back(&r);
    if (r && rq.bytes > 0 && !r->links.empty()) any_bytes = true;
  }
  if (any_bytes) {
    advanceProgress();
    ensureLinkTables();
  }
  // No inline callbacks fire during admission (unroutable and latency-only
  // completions are deferred events), so member seed scratch is safe here.
  arrival_seeds_.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    FlowRequest& rq = requests[i];
    const auto& route = *routes[i];
    if (!route) {
      ids.push_back(admitUnroutable(rq.src, rq.dst, std::move(rq.done)));
    } else if (rq.bytes <= 0 || route->links.empty()) {
      ids.push_back(admitLatencyOnly(route->latency + rq.options.extraLatency,
                                     rq.src, rq.dst, rq.bytes,
                                     std::move(rq.done), rq.options.tag,
                                     rq.options.correlation));
    } else {
      ids.push_back(admitByteFlow(*route, rq.src, rq.dst, rq.bytes,
                                  std::move(rq.done), std::move(rq.options),
                                  arrival_seeds_));
    }
  }
  if (any_bytes) {
    resolveAfterChange(arrival_seeds_);
    scheduleNextCompletion();
  }
  return ids;
}

void FlowNetwork::onLatencyFlowDone(FlowId id) {
  auto it = latency_flows_.find(id);
  if (it == latency_flows_.end()) return;
  LatencyFlow lf = std::move(it->second);
  latency_flows_.erase(it);
  ++flows_completed_;
  if (ProfileSink* sink = sim_.profiler()) {
    sink->endAsyncSpan(lf.span, {{"status", "completed"}});
  }
  FlowResult r{FlowStatus::Completed, lf.bytes, lf.start, sim_.now()};
  if (lf.done) lf.done(r);
}

bool FlowNetwork::cancelLatencyFlow(FlowId id) {
  auto lit = latency_flows_.find(id);
  if (lit == latency_flows_.end()) return false;
  LatencyFlow lf = std::move(lit->second);
  latency_flows_.erase(lit);
  sim_.cancel(lf.event);
  ++flows_failed_;
  if (ProfileSink* sink = sim_.profiler()) {
    sink->endAsyncSpan(lf.span, {{"status", "failed"}});
  }
  FlowResult r{FlowStatus::Failed, 0, lf.start, sim_.now()};
  if (lf.done) lf.done(r);
  return true;
}

bool FlowNetwork::cancelFlow(FlowId id) {
  if (cancelLatencyFlow(id)) return true;
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  advanceProgress();
  const std::uint32_t slot = it->second;
  // Local copy: the Failed callback runs inline and may start new flows.
  std::vector<LinkId> seeds = slots_[slot].links;
  finishFlow(slot, FlowStatus::Failed);
  resolveAfterChange(seeds);
  scheduleNextCompletion();
  return true;
}

std::size_t FlowNetwork::cancelFlows(const std::vector<FlowId>& ids) {
  bool any_active = false;
  for (FlowId id : ids) {
    if (id_to_slot_.count(id) != 0) {
      any_active = true;
      break;
    }
  }
  if (any_active) advanceProgress();
  // Local seeds: Failed callbacks run inline and may re-enter
  // startFlow(s)/cancelFlow(s), which clobber the member scratch.
  std::vector<LinkId> seeds;
  std::size_t cancelled = 0;
  for (FlowId id : ids) {
    if (cancelLatencyFlow(id)) {
      ++cancelled;
      continue;
    }
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end()) continue;
    const std::uint32_t slot = it->second;
    seeds.insert(seeds.end(), slots_[slot].links.begin(),
                 slots_[slot].links.end());
    finishFlow(slot, FlowStatus::Failed);
    ++cancelled;
  }
  if (any_active) {
    resolveAfterChange(seeds);
    scheduleNextCompletion();
  }
  return cancelled;
}

void FlowNetwork::failLink(LinkId link) {
  advanceProgress();
  topo_.setLinkUp(link, false);
  ++topo_.counters(link).errors;
  ensureLinkTables();
  // Victims come straight from the link->flows index. Capture ids (not
  // slots) before finishing: Failed callbacks run inline, may start new
  // flows, and a new flow could reuse a just-freed slot.
  const auto& on_link = link_flows_[static_cast<std::size_t>(link)];
  std::vector<FlowId> victims;
  std::vector<LinkId> seeds{link};
  victims.reserve(on_link.size());
  for (std::uint32_t slot : on_link) {
    victims.push_back(slots_[slot].id);
    seeds.insert(seeds.end(), slots_[slot].links.begin(), slots_[slot].links.end());
  }
  std::sort(victims.begin(), victims.end());
  for (FlowId vid : victims) {
    auto it = id_to_slot_.find(vid);
    if (it != id_to_slot_.end()) finishFlow(it->second, FlowStatus::Failed);
  }
  resolveAfterChange(seeds);
  scheduleNextCompletion();
}

void FlowNetwork::notifyTopologyChanged() {
  advanceProgress();
  ensureLinkTables();
  ++recomputations_;
  resolveAllComponents();
  scheduleNextCompletion();
}

Bandwidth FlowNetwork::flowRate(FlowId id) const {
  auto it = id_to_slot_.find(id);
  return it == id_to_slot_.end() ? 0.0 : slots_[it->second].rate;
}

FlowNetwork::State FlowNetwork::state() const {
  if (!id_to_slot_.empty() || !latency_flows_.empty()) {
    throw std::logic_error(
        "FlowNetwork::state: flows still in flight (snapshot requires a "
        "quiescent point)");
  }
  State st;
  st.slot_count = static_cast<std::uint32_t>(slots_.size());
  st.free_slots = free_slots_;
  st.epoch = epoch_;
  st.solve_epoch = solve_epoch_;
  st.next_id = next_id_;
  st.last_update = last_update_;
  st.flows_started = flows_started_;
  st.flows_completed = flows_completed_;
  st.flows_failed = flows_failed_;
  st.recomputations = recomputations_;
  st.component_solves = component_solves_;
  return st;
}

void FlowNetwork::restoreState(const State& st) {
  if (!id_to_slot_.empty() || !latency_flows_.empty()) {
    throw std::logic_error(
        "FlowNetwork::restoreState: target network has flows in flight");
  }
  slots_.assign(st.slot_count, ActiveFlow{});
  free_slots_ = st.free_slots;
  id_to_slot_.clear();
  latency_flows_.clear();
  for (auto& v : link_flows_) v.clear();
  ensureLinkTables();
  // Zeroed scratch reads as "stale" under the epoch-equality tests, which
  // is exactly how untouched entries behave in the run being forked.
  flow_epoch_.assign(st.slot_count, 0);
  flow_fixed_.assign(st.slot_count, 0);
  std::fill(link_epoch_.begin(), link_epoch_.end(), 0);
  epoch_ = st.epoch;
  solve_epoch_ = st.solve_epoch;
  next_id_ = st.next_id;
  last_update_ = st.last_update;
  active_.clear();
  completion_heap_.clear();
  completion_event_ = kInvalidEvent;
  completion_time_ = kInf;
  flows_started_ = st.flows_started;
  flows_completed_ = st.flows_completed;
  flows_failed_ = st.flows_failed;
  recomputations_ = st.recomputations;
  component_solves_ = st.component_solves;
}

void FlowNetwork::advanceProgress() {
  const SimTime now = sim_.now();
  const SimTime elapsed = now - last_update_;
  last_update_ = now;
  if (elapsed <= 0.0 || active_.empty()) return;
  for (std::uint32_t slot : active_) {
    ActiveFlow& f = slots_[slot];
    const double delta = std::min(f.remaining, f.rate * elapsed);
    f.remaining -= delta;
    const Bytes b = static_cast<Bytes>(std::llround(delta));
    for (LinkId l : f.links) topo_.counters(l).bytes += b;
  }
}

void FlowNetwork::ensureLinkTables() {
  const std::size_t n = topo_.linkCount();
  if (link_flows_.size() >= n) return;
  link_flows_.resize(n);
  link_residual_.resize(n, 0.0);
  link_unfixed_.resize(n, 0);
  link_epoch_.resize(n, 0);
}

void FlowNetwork::resolveAfterChange(const std::vector<LinkId>& seeds) {
  ++recomputations_;
  if (!incremental_) {
    resolveAllComponents();
    return;
  }
  ++epoch_;
  for (LinkId l : seeds) {
    if (link_epoch_[static_cast<std::size_t>(l)] == epoch_) continue;
    collectComponent(l);
    solveComponent();
  }
}

void FlowNetwork::resolveAllComponents() {
  ++epoch_;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const ActiveFlow& f = slots_[slot];
    if (f.id == kInvalidFlow || flow_epoch_[slot] == epoch_) continue;
    collectComponent(f.links.front());
    solveComponent();
  }
}

void FlowNetwork::collectComponent(LinkId seed) {
  comp_links_.clear();
  comp_flows_.clear();
  link_epoch_[static_cast<std::size_t>(seed)] = epoch_;
  comp_links_.push_back(seed);
  // comp_links_ doubles as the BFS worklist over the bipartite index.
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    const LinkId l = comp_links_[i];
    for (std::uint32_t slot : link_flows_[static_cast<std::size_t>(l)]) {
      if (flow_epoch_[slot] == epoch_) continue;
      flow_epoch_[slot] = epoch_;
      comp_flows_.push_back(slot);
      for (LinkId l2 : slots_[slot].links) {
        auto& mark = link_epoch_[static_cast<std::size_t>(l2)];
        if (mark == epoch_) continue;
        mark = epoch_;
        comp_links_.push_back(l2);
      }
    }
  }
  std::sort(comp_links_.begin(), comp_links_.end());
  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return slots_[a].id < slots_[b].id; });
}

void FlowNetwork::profileLinkCounters(ProfileSink& sink) {
  ProfileKeys& keys = profile_keys_.get(sink);
  for (LinkId l : comp_links_) {
    const auto li = static_cast<std::size_t>(l);
    double used = 0.0;
    for (std::uint32_t slot : link_flows_[li]) used += slots_[slot].rate;
    const Bandwidth cap = topo_.link(l).capacity;
    if (keys.links.size() <= li) {
      keys.links.resize(li + 1, {kNoCounterKey, kNoCounterKey});
    }
    auto& [util_key, flows_key] = keys.links[li];
    if (util_key == kNoCounterKey) {
      const Link& link = topo_.link(l);
      std::string name = "link:";
      name += topo_.node(link.src).name;
      name += "->";
      name += topo_.node(link.dst).name;
      util_key = sink.counterKey(name, "util_pct");
      flows_key = sink.counterKey(name, "flows");
    }
    sink.setCounter(util_key, cap > 0.0 ? 100.0 * used / cap : 0.0);
    sink.setCounter(flows_key, static_cast<double>(link_flows_[li].size()));
  }
}

void FlowNetwork::solveComponent() {
  ProfileSink* sink = sim_.profiler();
  if (comp_flows_.empty()) {
    // All flows on the seed links departed; publish the drop to idle.
    if (sink != nullptr) profileLinkCounters(*sink);
    return;
  }
  ++component_solves_;

  if (naive_sharing_) {
    // Ablation mode: every flow gets min over links of capacity/<flows on
    // link>, ignoring that other flows may be bottlenecked elsewhere.
    for (std::uint32_t slot : comp_flows_) {
      double r = slots_[slot].max_rate;
      for (LinkId l : slots_[slot].links) {
        const auto li = static_cast<std::size_t>(l);
        r = std::min(r, topo_.link(l).capacity /
                            static_cast<double>(link_flows_[li].size()));
      }
      applyRate(slot, r);
    }
    if (sink != nullptr) profileLinkCounters(*sink);
    return;
  }

  // Progressive filling (max-min fairness). Rate caps are modelled as a
  // per-flow pseudo-link of capacity max_rate carrying exactly that flow.
  for (LinkId l : comp_links_) {
    const auto li = static_cast<std::size_t>(l);
    link_residual_[li] = topo_.link(l).capacity;
    link_unfixed_[li] = static_cast<std::uint32_t>(link_flows_[li].size());
  }
  comp_capped_.clear();
  for (std::uint32_t slot : comp_flows_) {
    if (std::isfinite(slots_[slot].max_rate)) comp_capped_.push_back(slot);
  }
  ++solve_epoch_;

  std::size_t remaining = comp_flows_.size();
  while (remaining > 0) {
    // Find the tightest constraint: a real link's fair share, or a flow
    // cap. Links scan in ascending LinkId, caps in ascending FlowId, so
    // the fill order is deterministic regardless of arrival history.
    double best = kInf;
    LinkId best_link = kInvalidLink;
    std::uint32_t best_capped = kNoPos;
    for (LinkId l : comp_links_) {
      const auto li = static_cast<std::size_t>(l);
      if (link_unfixed_[li] == 0) continue;
      const double share =
          std::max(0.0, link_residual_[li]) / static_cast<double>(link_unfixed_[li]);
      if (share < best) {
        best = share;
        best_link = l;
      }
    }
    for (std::uint32_t slot : comp_capped_) {
      if (flow_fixed_[slot] == solve_epoch_) continue;
      if (slots_[slot].max_rate < best) {
        best = slots_[slot].max_rate;
        best_link = kInvalidLink;
        best_capped = slot;
      }
    }

    // Fix the constrained flows at `best` and charge their links.
    const auto fix = [&](std::uint32_t slot) {
      flow_fixed_[slot] = solve_epoch_;
      applyRate(slot, best);
      for (LinkId l : slots_[slot].links) {
        const auto li = static_cast<std::size_t>(l);
        link_residual_[li] -= best;
        --link_unfixed_[li];
      }
      --remaining;
    };
    if (best_capped != kNoPos) {
      fix(best_capped);
    } else if (best_link != kInvalidLink) {
      for (std::uint32_t slot : link_flows_[static_cast<std::size_t>(best_link)]) {
        if (flow_fixed_[slot] != solve_epoch_) fix(slot);
      }
    } else {
      break;  // defensive: no constraint found (should not happen)
    }
  }
  if (sink != nullptr) profileLinkCounters(*sink);
}

void FlowNetwork::applyRate(std::uint32_t slot, Bandwidth rate) {
  ActiveFlow& f = slots_[slot];
  if (f.rate == rate) return;  // unchanged: projection stays pinned
  f.rate = rate;
  if (rate > 0.0) {
    if (f.active_pos == kNoPos) {
      f.active_pos = static_cast<std::uint32_t>(active_.size());
      active_.push_back(slot);
    }
    f.projected_finish = sim_.now() + f.remaining / rate;
    heapUpsert(slot);
  } else {
    if (f.active_pos != kNoPos) activeErase(slot);
    f.projected_finish = kInf;
    heapErase(slot);
  }
}

bool FlowNetwork::heapLess(std::uint32_t a, std::uint32_t b) const {
  const ActiveFlow& fa = slots_[a];
  const ActiveFlow& fb = slots_[b];
  if (fa.projected_finish != fb.projected_finish) {
    return fa.projected_finish < fb.projected_finish;
  }
  return fa.id < fb.id;
}

void FlowNetwork::heapSiftUp(std::size_t i) {
  const std::uint32_t slot = completion_heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heapLess(slot, completion_heap_[parent])) break;
    completion_heap_[i] = completion_heap_[parent];
    slots_[completion_heap_[i]].heap_pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  completion_heap_[i] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(i);
}

void FlowNetwork::heapSiftDown(std::size_t i) {
  const std::uint32_t slot = completion_heap_[i];
  const std::size_t n = completion_heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heapLess(completion_heap_[child + 1], completion_heap_[child])) {
      ++child;
    }
    if (!heapLess(completion_heap_[child], slot)) break;
    completion_heap_[i] = completion_heap_[child];
    slots_[completion_heap_[i]].heap_pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  completion_heap_[i] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(i);
}

void FlowNetwork::heapUpsert(std::uint32_t slot) {
  std::uint32_t pos = slots_[slot].heap_pos;
  if (pos == kNoPos) {
    pos = static_cast<std::uint32_t>(completion_heap_.size());
    completion_heap_.push_back(slot);
    slots_[slot].heap_pos = pos;
    heapSiftUp(pos);
  } else {
    heapSiftUp(pos);
    heapSiftDown(slots_[slot].heap_pos);
  }
}

void FlowNetwork::heapErase(std::uint32_t slot) {
  const std::uint32_t pos = slots_[slot].heap_pos;
  if (pos == kNoPos) return;
  slots_[slot].heap_pos = kNoPos;
  const std::uint32_t last = completion_heap_.back();
  completion_heap_.pop_back();
  if (last == slot) return;
  completion_heap_[pos] = last;
  slots_[last].heap_pos = pos;
  heapSiftUp(pos);
  heapSiftDown(slots_[last].heap_pos);
}

void FlowNetwork::activeErase(std::uint32_t slot) {
  const std::uint32_t pos = slots_[slot].active_pos;
  slots_[slot].active_pos = kNoPos;
  const std::uint32_t last = active_.back();
  active_.pop_back();
  if (last == slot) return;
  active_[pos] = last;
  slots_[last].active_pos = pos;
}

void FlowNetwork::scheduleNextCompletion() {
  const SimTime next =
      completion_heap_.empty() ? kInf : slots_[completion_heap_.front()].projected_finish;
  if (next == completion_time_) return;  // already scheduled at this time
  if (completion_event_ != kInvalidEvent) {
    sim_.cancel(completion_event_);
    completion_event_ = kInvalidEvent;
  }
  completion_time_ = next;
  if (!std::isfinite(next)) return;  // all flows stalled (e.g. link down)
  completion_event_ = sim_.scheduleAt(next, [this] {
    completion_event_ = kInvalidEvent;
    completion_time_ = kInf;
    onCompletionEvent();
  });
}

void FlowNetwork::onCompletionEvent() {
  advanceProgress();
  const SimTime now = sim_.now();
  // Pop every flow whose projected completion has arrived; by
  // construction their remaining bytes are within float residue of zero.
  // Completed callbacks are deferred events, so member scratch is safe.
  done_scratch_.clear();
  seed_scratch_.clear();
  while (!completion_heap_.empty()) {
    const std::uint32_t top = completion_heap_.front();
    if (slots_[top].projected_finish > now) break;
    heapErase(top);
    done_scratch_.push_back(top);
  }
  std::sort(done_scratch_.begin(), done_scratch_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return slots_[a].id < slots_[b].id; });
  for (std::uint32_t slot : done_scratch_) {
    const auto& links = slots_[slot].links;
    seed_scratch_.insert(seed_scratch_.end(), links.begin(), links.end());
  }
  for (std::uint32_t slot : done_scratch_) finishFlow(slot, FlowStatus::Completed);
  resolveAfterChange(seed_scratch_);
  scheduleNextCompletion();
}

void FlowNetwork::finishFlow(std::uint32_t slot, FlowStatus status) {
  heapErase(slot);
  if (slots_[slot].active_pos != kNoPos) activeErase(slot);
  for (LinkId l : slots_[slot].links) {
    auto& v = link_flows_[static_cast<std::size_t>(l)];
    v.erase(std::find(v.begin(), v.end(), slot));  // order-preserving
  }
  id_to_slot_.erase(slots_[slot].id);
  ActiveFlow f = std::move(slots_[slot]);
  slots_[slot] = ActiveFlow{};
  free_slots_.push_back(slot);
  if (status == FlowStatus::Completed) {
    ++flows_completed_;
  } else {
    ++flows_failed_;
  }
  const Bytes carried = (status == FlowStatus::Completed)
                            ? f.total
                            : f.total - static_cast<Bytes>(std::llround(f.remaining));
  if (ProfileSink* sink = sim_.profiler()) {
    // Per-flow contention accounting: time spent beyond the uncontended
    // reference duration is time lost to sharing links with other flows.
    const SimTime actual = sim_.now() - f.start;
    const SimTime contended = std::max(0.0, actual - f.ideal_s);
    sink->endAsyncSpan(f.span,
                       {{"status", status == FlowStatus::Completed
                                       ? "completed"
                                       : "failed"},
                        {"carried_bytes", carried},
                        {"ideal_s", f.ideal_s},
                        {"contended_s", contended}});
  }
  FlowResult result{status, carried, f.start, sim_.now() + f.arrival_latency};
  if (f.done) {
    if (status == FlowStatus::Completed) {
      // Delivery completes one propagation latency after the last byte is
      // injected; the callback observes arrival time.
      sim_.schedule(f.arrival_latency, [cb = std::move(f.done), result] { cb(result); });
    } else {
      f.done(result);
    }
  }
}

}  // namespace composim::fabric
