#include "fabric/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/indexed_heap.hpp"

namespace composim::fabric {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

FlowNetwork::ProfileKeys::ProfileKeys(ProfileSink& sink)
    : fabric(sink.intern("fabric")),
      flow(sink.intern("flow")),
      unroutable(sink.intern("flow-unroutable")) {}

AsyncSpanId FlowNetwork::beginFlowSpan(NodeId src, NodeId dst, Bytes bytes,
                                       std::string_view tag,
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
  ++st_.flows_started;
  ++st_.flows_failed;
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

FlowId FlowNetwork::admitLatencyOnly(const Route& route, NodeId src,
                                     NodeId dst, Bytes bytes, FlowCallback done,
                                     const FlowOptions& options) {
  // Control message or same-node transfer: latency only. The scheduled
  // completion owns everything the callback needs; latency_in_flight_
  // keeps the network non-quiescent until it lands.
  const FlowId id = st_.next_id++;
  ++st_.flows_started;
  ++latency_in_flight_;
  const AsyncSpanId span =
      beginFlowSpan(src, dst, bytes, options.tag, options.correlation);
  sim_.schedule(route.latency + options.extraLatency,
                [this, bytes, start = sim_.now(), span, done = std::move(done)] {
                  --latency_in_flight_;
                  ++st_.flows_completed;
                  if (ProfileSink* sink = sim_.profiler()) {
                    sink->endAsyncSpan(span, {{"status", "completed"}});
                  }
                  if (done) done({FlowStatus::Completed, bytes, start, sim_.now()});
                });
  return id;
}

FlowId FlowNetwork::admitByteFlow(const Route& route, NodeId src, NodeId dst,
                                  Bytes bytes, FlowCallback done,
                                  const FlowOptions& options,
                                  std::vector<LinkId>& seeds) {
  const FlowId id = st_.next_id++;
  ++st_.flows_started;
  std::uint32_t slot;
  if (st_.free_slots.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    flow_epoch_.push_back(0);
    flow_fixed_.push_back(0);
  } else {
    slot = st_.free_slots.back();
    st_.free_slots.pop_back();
  }
  ActiveFlow& f = slots_[slot];
  f.id = id;
  f.links.assign(route.links.begin(), route.links.end());  // keeps capacity
  f.remaining = static_cast<double>(bytes);
  f.rate = 0.0;
  f.max_rate = options.maxRate;
  f.total = bytes;
  f.start = sim_.now();
  f.arrival_latency = route.latency + options.extraLatency;
  f.projected_finish = kInf;
  f.done = std::move(done);
  f.heap_pos = kNoPos;
  f.active_pos = kNoPos;
  f.span = beginFlowSpan(src, dst, bytes, options.tag, options.correlation);
  f.ideal_s = 0.0;
  if (f.span != kInvalidAsyncSpan) {
    // Contention-free reference: the whole payload at the uncontended
    // route bottleneck (still respecting the flow's own rate cap).
    const Bandwidth ideal_rate = std::min(options.maxRate, route.bottleneck);
    if (ideal_rate > 0.0 && std::isfinite(ideal_rate)) {
      f.ideal_s = static_cast<double>(bytes) / ideal_rate;
    }
  }
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
    return admitLatencyOnly(*route, src, dst, bytes, std::move(done), options);
  }
  advanceProgress();
  ensureLinkTables();
  arrival_seeds_.clear();
  const FlowId id = admitByteFlow(*route, src, dst, bytes, std::move(done),
                                  options, arrival_seeds_);
  resolveAfterChange(arrival_seeds_);
  scheduleNextCompletion();
  return id;
}

std::vector<FlowId> FlowNetwork::startFlows(std::vector<FlowRequest> requests) {
  std::vector<FlowId> ids;
  ids.reserve(requests.size());
  admitBatch(requests, &ids);
  return ids;
}

void FlowNetwork::startWave(std::vector<FlowRequest>& requests) {
  admitBatch(requests, nullptr);
}

void FlowNetwork::admitBatch(std::vector<FlowRequest>& requests,
                             std::vector<FlowId>* ids) {
  if (requests.empty()) return;
  // Route everything first (cache entries have stable addresses across
  // inserts), so the solver prep — advanceProgress in particular, whose
  // per-call byte-counter rounding must match the serial path — runs
  // exactly once and only when a byte flow is actually admitted.
  batch_routes_.clear();
  bool any_bytes = false;
  for (const FlowRequest& rq : requests) {
    const auto& r = topo_.routeCached(rq.src, rq.dst);
    batch_routes_.push_back(&r);
    if (r && rq.bytes > 0 && !r->links.empty()) any_bytes = true;
  }
  if (any_bytes) {
    advanceProgress();
    ensureLinkTables();
  }
  // No inline callbacks fire during admission (unroutable and latency-only
  // completions are deferred events), so member scratch is safe here.
  arrival_seeds_.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    FlowRequest& rq = requests[i];
    const auto& route = *batch_routes_[i];
    FlowId id;
    if (!route) {
      id = admitUnroutable(rq.src, rq.dst, std::move(rq.done));
    } else if (rq.bytes <= 0 || route->links.empty()) {
      id = admitLatencyOnly(*route, rq.src, rq.dst, rq.bytes,
                            std::move(rq.done), rq.options);
    } else {
      id = admitByteFlow(*route, rq.src, rq.dst, rq.bytes, std::move(rq.done),
                         rq.options, arrival_seeds_);
    }
    if (ids != nullptr) ids->push_back(id);
  }
  if (any_bytes) {
    resolveAfterChange(arrival_seeds_);
    scheduleNextCompletion();
  }
}

void FlowNetwork::failLink(LinkId link) {
  advanceProgress();
  topo_.setLinkUp(link, false);
  ++topo_.counters(link).errors;
  ensureLinkTables();
  // Victims come straight from the link->flows index, captured as (id,
  // slot) before finishing any: Failed callbacks run inline and may fail
  // other links or start flows, so a victim may already be gone and its
  // slot may hold a newer flow by the time its turn comes.
  const auto& on_link = link_flows_[static_cast<std::size_t>(link)];
  std::vector<std::pair<FlowId, std::uint32_t>> victims;
  std::vector<LinkId> seeds{link};
  victims.reserve(on_link.size());
  for (std::uint32_t slot : on_link) {
    victims.emplace_back(slots_[slot].id, slot);
    seeds.insert(seeds.end(), slots_[slot].links.begin(), slots_[slot].links.end());
  }
  std::sort(victims.begin(), victims.end());
  for (const auto& [id, slot] : victims) {
    if (slots_[slot].id == id) finishFlow(slot, FlowStatus::Failed);
  }
  resolveAfterChange(seeds);
  scheduleNextCompletion();
}

void FlowNetwork::notifyTopologyChanged() {
  advanceProgress();
  ensureLinkTables();
  ++st_.recomputations;
  resolveAllComponents();
  scheduleNextCompletion();
}

Bandwidth FlowNetwork::flowRate(FlowId id) const {
  if (id == kInvalidFlow) return 0.0;  // free slots carry kInvalidFlow
  for (const ActiveFlow& f : slots_) {
    if (f.id == id) return f.rate;
  }
  return 0.0;
}

FlowNetwork::State FlowNetwork::state() const {
  if (inFlight()) {
    throw std::logic_error(
        "FlowNetwork::state: flows still in flight (snapshot requires a "
        "quiescent point)");
  }
  State st = st_;
  st.slot_count = static_cast<std::uint32_t>(slots_.size());
  return st;
}

void FlowNetwork::restoreState(const State& st) {
  if (inFlight()) {
    throw std::logic_error(
        "FlowNetwork::restoreState: target network has flows in flight");
  }
  st_ = st;
  slots_.assign(st.slot_count, ActiveFlow{});
  for (auto& v : link_flows_) v.clear();
  ensureLinkTables();
  // Zeroed scratch reads as "stale" under the epoch-equality tests, which
  // is exactly how untouched entries behave in the run being forked.
  flow_epoch_.assign(st.slot_count, 0);
  flow_fixed_.assign(st.slot_count, 0);
  std::fill(link_epoch_.begin(), link_epoch_.end(), 0);
  active_.clear();
  completion_heap_.clear();
  completion_event_ = kInvalidEvent;
  completion_time_ = kInf;
  batches_.clear();
  free_batches_.clear();
}

void FlowNetwork::advanceProgress() {
  const SimTime now = sim_.now();
  const SimTime elapsed = now - st_.last_update;
  st_.last_update = now;
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
  ++st_.recomputations;
  if (!incremental_) {
    resolveAllComponents();
    return;
  }
  ++st_.epoch;
  ProfileSink* sink = sim_.profiler();
  for (LinkId l : seeds) {
    const auto li = static_cast<std::size_t>(l);
    if (link_epoch_[li] == st_.epoch) continue;
    if (link_flows_[li].empty()) {
      // The change emptied this link, so its component is the link alone
      // and there is nothing to solve: only publish its drop to idle.
      link_epoch_[li] = st_.epoch;
      if (sink != nullptr) profileLinkCounters(*sink, l);
      continue;
    }
    collectComponent(l);
    solveComponent();
  }
}

void FlowNetwork::resolveAllComponents() {
  ++st_.epoch;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const ActiveFlow& f = slots_[slot];
    if (f.id == kInvalidFlow || flow_epoch_[slot] == st_.epoch) continue;
    collectComponent(f.links.front());
    solveComponent();
  }
}

void FlowNetwork::collectComponent(LinkId seed) {
  comp_links_.clear();
  comp_flows_.clear();
  link_epoch_[static_cast<std::size_t>(seed)] = st_.epoch;
  comp_links_.push_back(seed);
  // comp_links_ doubles as the BFS worklist over the bipartite index.
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    const LinkId l = comp_links_[i];
    for (std::uint32_t slot : link_flows_[static_cast<std::size_t>(l)]) {
      if (flow_epoch_[slot] == st_.epoch) continue;
      flow_epoch_[slot] = st_.epoch;
      comp_flows_.push_back(slot);
      for (LinkId l2 : slots_[slot].links) {
        auto& mark = link_epoch_[static_cast<std::size_t>(l2)];
        if (mark == st_.epoch) continue;
        mark = st_.epoch;
        comp_links_.push_back(l2);
      }
    }
  }
  std::sort(comp_links_.begin(), comp_links_.end());
  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return slots_[a].id < slots_[b].id; });
}

void FlowNetwork::profileLinkCounters(ProfileSink& sink, LinkId l) {
  ProfileKeys& keys = profile_keys_.get(sink);
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

void FlowNetwork::solveComponent() {
  ++st_.component_solves;

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
  ++st_.solve_epoch;

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
      if (flow_fixed_[slot] == st_.solve_epoch) continue;
      if (slots_[slot].max_rate < best) {
        best = slots_[slot].max_rate;
        best_link = kInvalidLink;
        best_capped = slot;
      }
    }

    // Fix the constrained flows at `best` and charge their links.
    const auto fix = [&](std::uint32_t slot) {
      flow_fixed_[slot] = st_.solve_epoch;
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
        if (flow_fixed_[slot] != st_.solve_epoch) fix(slot);
      }
    } else {
      break;  // defensive: no constraint found (should not happen)
    }
  }
  if (ProfileSink* sink = sim_.profiler()) {
    for (LinkId l : comp_links_) profileLinkCounters(*sink, l);
  }
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
    if (f.heap_pos == kNoPos) {
      heap::push(completion_heap_, slot, FinishOrder{this}, FinishPlace{this});
    } else {
      heap::update(completion_heap_, f.heap_pos, FinishOrder{this}, FinishPlace{this});
    }
  } else {
    if (f.active_pos != kNoPos) activeErase(slot);
    f.projected_finish = kInf;
    eraseFinish(slot);
  }
}

bool FlowNetwork::FinishOrder::operator()(std::uint32_t a, std::uint32_t b) const {
  const ActiveFlow& fa = net->slots_[a];
  const ActiveFlow& fb = net->slots_[b];
  if (fa.projected_finish != fb.projected_finish) {
    return fa.projected_finish < fb.projected_finish;
  }
  return fa.id < fb.id;
}

void FlowNetwork::eraseFinish(std::uint32_t slot) {
  const std::uint32_t pos = slots_[slot].heap_pos;
  if (pos == kNoPos) return;
  slots_[slot].heap_pos = kNoPos;
  heap::erase(completion_heap_, pos, FinishOrder{this}, FinishPlace{this});
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
  // Completed callbacks are deferred to batch events, so member scratch is
  // safe.
  done_scratch_.clear();
  seed_scratch_.clear();
  while (!completion_heap_.empty()) {
    const std::uint32_t top = completion_heap_.front();
    if (slots_[top].projected_finish > now) break;
    eraseFinish(top);
    done_scratch_.push_back(top);
  }
  std::sort(done_scratch_.begin(), done_scratch_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return slots_[a].id < slots_[b].id; });
  for (std::uint32_t slot : done_scratch_) {
    const auto& links = slots_[slot].links;
    seed_scratch_.insert(seed_scratch_.end(), links.begin(), links.end());
  }
  wave_batches_.clear();
  for (std::uint32_t slot : done_scratch_) finishFlow(slot, FlowStatus::Completed);
  // One delivery event per arrival time, in order of first appearance.
  // Per-flow events scheduled here would take consecutive sequence numbers
  // with nothing between them, so a batch runs its callbacks exactly where
  // those events would have run.
  for (std::uint32_t b : wave_batches_) {
    sim_.scheduleAt(batches_[b].at, [this, b] { deliverBatch(b); });
  }
  resolveAfterChange(seed_scratch_);
  scheduleNextCompletion();
}

void FlowNetwork::queueDelivery(SimTime at, FlowCallback done,
                                const FlowResult& result) {
  for (std::uint32_t b : wave_batches_) {
    if (batches_[b].at == at) {
      batches_[b].items.push_back({std::move(done), result});
      return;
    }
  }
  std::uint32_t b;
  if (free_batches_.empty()) {
    b = static_cast<std::uint32_t>(batches_.size());
    batches_.emplace_back();
  } else {
    b = free_batches_.back();
    free_batches_.pop_back();
  }
  batches_[b].at = at;
  batches_[b].items.push_back({std::move(done), result});
  wave_batches_.push_back(b);
}

void FlowNetwork::deliverBatch(std::uint32_t b) {
  // Each callback is moved out and released before the next one runs, as
  // with one event per flow. Re-indexing instead of holding a reference
  // keeps the loop valid even if a callback grows the pool.
  for (std::size_t i = 0; i < batches_[b].items.size(); ++i) {
    Delivery& d = batches_[b].items[i];
    const FlowResult result = d.result;
    const FlowCallback done = std::move(d.done);
    done(result);
  }
  batches_[b].items.clear();  // keeps capacity for the next wave
  free_batches_.push_back(b);
}

void FlowNetwork::finishFlow(std::uint32_t slot, FlowStatus status) {
  ActiveFlow& f = slots_[slot];
  eraseFinish(slot);
  if (f.active_pos != kNoPos) activeErase(slot);
  for (LinkId l : f.links) {
    auto& v = link_flows_[static_cast<std::size_t>(l)];
    v.erase(std::find(v.begin(), v.end(), slot));  // order-preserving
  }
  if (status == FlowStatus::Completed) {
    ++st_.flows_completed;
  } else {
    ++st_.flows_failed;
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
  const FlowResult result{status, carried, f.start, sim_.now() + f.arrival_latency};
  const SimTime arrival_delay = f.arrival_latency < 0.0 ? 0.0 : f.arrival_latency;
  FlowCallback done = std::move(f.done);
  // Free the slot before any callback runs (a Failed callback may start a
  // flow that reuses it). Cleared field by field so `links` keeps its
  // capacity; admitByteFlow sets everything else.
  f.id = kInvalidFlow;
  f.links.clear();
  f.done = nullptr;
  st_.free_slots.push_back(slot);
  if (!done) return;
  if (status == FlowStatus::Completed) {
    // Delivery completes one propagation latency after the last byte is
    // injected; the callback observes arrival time. Same arithmetic as
    // Simulator::schedule, so equal latencies share one batch.
    queueDelivery(sim_.now() + arrival_delay, std::move(done), result);
  } else {
    done(result);
  }
}

}  // namespace composim::fabric
