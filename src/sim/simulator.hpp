// composim: discrete-event simulation kernel.
//
// Single-threaded, deterministic. Events are (time, sequence) ordered so
// ties resolve in scheduling order. Each event lives in a slot that owns
// its action; the heap holds only 24-byte (time, sequence, slot) keys, so
// a sift moves plain data and never a std::function. An EventId encodes
// the slot index plus the slot's generation, and the heap is indexed
// (sim/indexed_heap.hpp): each pending slot knows its key's position, so
// cancel() erases the key in place in O(log n) and the heap holds live
// events only.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/units.hpp"

namespace composim {

class ProfileSink;

/// Handle to a scheduled event; usable with Simulator::cancel().
using EventId = std::uint64_t;

constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Action = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds).
  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now. Negative delays clamp
  /// to zero (run at the current time, after already-queued events).
  EventId schedule(SimTime delay, Action fn);

  /// Schedule at an absolute time (clamped to now()).
  EventId scheduleAt(SimTime when, Action fn);

  /// Cancel a pending event. Returns false if it already ran, was already
  /// cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `maxEvents` events execute.
  void run(std::uint64_t maxEvents = UINT64_MAX);

  /// Run until simulated time reaches `until` (events at exactly `until`
  /// are executed) or the queue drains.
  void runUntil(SimTime until);

  /// Number of events executed so far.
  std::uint64_t eventsExecuted() const { return executed_; }

  /// Number of events still pending (cancelled events leave at once).
  std::size_t pendingEvents() const { return heap_.size(); }

  bool empty() const { return heap_.empty(); }

  /// Optional profiling hook (see sim/profile.hpp). Not owned; nullptr
  /// means profiling is off and instrumented components skip all work.
  void setProfiler(ProfileSink* sink) { profiler_ = sink; }
  ProfileSink* profiler() const { return profiler_; }

  /// Deterministic snapshot of a *drained* simulator: clock, sequence
  /// counter and the slot/generation allocator. Capturing the allocator is
  /// what makes forked runs hand out the same EventIds as a cold run — the
  /// free-list order and per-slot generations decide every future id.
  /// Only valid at a quiescent point (empty event queue); state() and
  /// setState() throw std::logic_error otherwise.
  struct State {
    SimTime now = 0.0;
    std::uint64_t next_seq = 1;
    std::uint64_t executed = 0;
    std::vector<std::uint32_t> slot_generations;
    std::vector<std::uint32_t> free_slots;
  };

  State state() const;
  void setState(const State& st);

 private:
  static constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

  struct Key {
    SimTime time;
    std::uint64_t seq;   // global scheduling order; breaks time ties
    std::uint32_t slot;  // index into slots_
  };
  struct Slot {
    Action fn;
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kNoPos;  // key's index in heap_; kNoPos = free
  };
  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  /// Position hook for sim/indexed_heap.hpp.
  struct Place {
    Simulator* sim;
    void operator()(const Key& k, std::size_t i) const {
      sim->slots_[k.slot].heap_pos = static_cast<std::uint32_t>(i);
    }
  };
  /// Erase heap_[pos] and release its slot; returns the slot's action.
  Action take(std::size_t pos);
  /// Pop the earliest event and run it.
  void runNext();

  ProfileSink* profiler_ = nullptr;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace composim
