#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "sim/indexed_heap.hpp"

namespace composim {

EventId Simulator::schedule(SimTime delay, Action fn) {
  if (delay < 0.0) delay = 0.0;
  return scheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::scheduleAt(SimTime when, Action fn) {
  if (!fn) throw std::invalid_argument("Simulator::schedule: empty action");
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap::push(heap_, Key{when, next_seq_++, slot}, earlier, Place{this});
  return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
}

Simulator::Action Simulator::take(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  heap::erase(heap_, pos, earlier, Place{this});
  Slot& s = slots_[slot];
  Action fn = std::move(s.fn);
  s.heap_pos = kNoPos;
  ++s.generation;                         // stale EventIds stop matching
  if (s.generation == 0) ++s.generation;  // keep ids nonzero on wrap
  free_slots_.push_back(slot);
  return fn;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.heap_pos == kNoPos || s.generation != gen) return false;
  // The closure is destroyed on return, once the queue is consistent.
  const Action dropped = take(s.heap_pos);
  return true;
}

void Simulator::runNext() {
  const SimTime time = heap_.front().time;
  const Action fn = take(0);  // the slot is free before the action runs
  now_ = time;
  ++executed_;
  fn();
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  runNext();
  return true;
}

void Simulator::run(std::uint64_t maxEvents) {
  for (std::uint64_t i = 0; i < maxEvents; ++i) {
    if (!step()) return;
  }
}

void Simulator::runUntil(SimTime until) {
  while (!heap_.empty()) {
    if (heap_.front().time > until) {
      now_ = until;
      return;
    }
    runNext();
  }
}

Simulator::State Simulator::state() const {
  if (!heap_.empty()) {
    throw std::logic_error(
        "Simulator::state: event queue not drained (closures in pending "
        "events cannot be captured)");
  }
  State st;
  st.now = now_;
  st.next_seq = next_seq_;
  st.executed = executed_;
  st.slot_generations.reserve(slots_.size());
  for (const Slot& s : slots_) st.slot_generations.push_back(s.generation);
  st.free_slots = free_slots_;
  return st;
}

void Simulator::setState(const State& st) {
  if (!heap_.empty()) {
    throw std::logic_error(
        "Simulator::setState: target simulator has pending events");
  }
  now_ = st.now;
  next_seq_ = st.next_seq;
  executed_ = st.executed;
  slots_.clear();
  slots_.resize(st.slot_generations.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].generation = st.slot_generations[i];
  }
  free_slots_ = st.free_slots;
}

}  // namespace composim
