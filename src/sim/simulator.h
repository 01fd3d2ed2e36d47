#ifndef SBFT_SIM_SIMULATOR_H_
#define SBFT_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/event_fn.h"

namespace sbft::sim {

/// Identifier of a scheduled event, usable with Cancel(). Encodes a pooled
/// slot index, the owning loop's tag, and a generation stamp; 0 is never a
/// valid id.
using EventId = uint64_t;

/// \brief Deterministic discrete-event simulator.
///
/// The substitution for the paper's wall-clock testbed (DESIGN.md §16): all
/// latency/throughput numbers in the benches are measured in this clock.
/// Events at equal times fire in scheduling order, so a run is a pure
/// function of (program, seed).
///
/// The core is allocation-free in steady state: callables live in
/// generation-stamped pooled slots (recycled through a free list) and the
/// ready queue is a 4-ary heap of 24-byte plain entries, so Schedule /
/// Cancel / Step touch no allocator once the pool has warmed up to the
/// peak number of outstanding events. Cancel is amortised O(1): it retires
/// the slot immediately (bumping its generation) and the heap entry, now
/// stale, is skipped on pop via the stamp mismatch. Once the stale
/// entries outnumber the live ones by more than kStaleSlack, the heap is
/// rebuilt from the live ones, so a run that cancels most of its timers
/// does not sift a heap many times deeper than its pending events.
class Simulator {
 public:
  /// How far the heap's stale entries may outnumber its live ones.
  static constexpr size_t kStaleSlack = 64;

  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at now() + delay (delay clamped to >= 0).
  EventId Schedule(SimDuration delay, EventFn fn);

  /// Schedules `fn` at an absolute time (clamped to >= now()).
  EventId ScheduleAt(SimTime when, EventFn fn);

  /// Schedules an event arriving from another loop of a parallel run
  /// (sim/parallel.h). `order` is the caller-supplied tie-break key among
  /// equal-time events; the parallel engine derives it from (source loop,
  /// channel sequence), which makes the heap order — and therefore the
  /// execution order — a pure function of the simulation, independent of
  /// when the receiving thread happened to drain the mailbox. Cross
  /// events sort after local events at the same timestamp (their order
  /// keys have the top bit set, local seq counters never reach it).
  ///
  /// Debug builds assert `when >= now()`: an arrival in the receiver's
  /// past is a causality violation — the conservative-lookahead window
  /// advanced further than the link's minimum latency allows.
  EventId ScheduleCrossAt(SimTime when, uint64_t order, EventFn fn);

  /// Cancels a pending event in O(1); returns false (and does nothing) if
  /// it already fired, was already cancelled, was never issued — or if the
  /// id belongs to a different loop (owner-tag mismatch). The last case
  /// matters in parallel runs: blindly touching the slot pool of another
  /// loop's Simulator would corrupt a heap owned by another thread, so a
  /// foreign id is rejected outright instead of being looked up.
  bool Cancel(EventId id);

  /// Executes the next event. Returns false when the queue is empty.
  bool Step();

  /// Runs events until the clock would pass `deadline` or the queue
  /// drains; the clock ends at exactly `deadline` if events remain.
  void RunUntil(SimTime deadline);

  /// Runs until the event queue is empty or Stop() is called.
  void RunToCompletion();

  /// Executes every pending event with time < `limit` (exclusive) and
  /// returns how many ran. The conservative-PDES inner step: the parallel
  /// engine computes the safe window bound and this executes exactly it,
  /// leaving now() at the last executed event.
  uint64_t ExecuteWindow(SimTime limit);

  /// Reports the next live event time without executing it; false when
  /// the queue is empty.
  bool NextEventTime(SimTime* when) { return PeekTime(when); }

  /// Advances the clock to `t` if it is behind (never backwards) — the
  /// end-of-window equivalent of RunUntil's final clock snap.
  void FastForwardTo(SimTime t) {
    if (now_ < t) now_ = t;
  }

  /// Tags this loop's EventIds (0..255; default 0 = the serial/global
  /// loop). Cancel() rejects ids whose tag differs from the owner's, so a
  /// handle that leaks across loops cannot corrupt a foreign heap. Set
  /// once, before any event is scheduled.
  void SetOwnerTag(uint32_t tag) {
    assert(next_seq_ == 1 && "owner tag must be set before scheduling");
    owner_tag_ = tag & 0xffu;
  }
  uint32_t owner_tag() const { return owner_tag_; }

  /// Makes RunUntil / RunToCompletion return after the current event.
  void Stop() { stopped_ = true; }

  /// Number of events executed so far.
  uint64_t events_executed() const { return events_executed_; }

  /// Live (scheduled, not yet fired or cancelled) events.
  size_t pending_events() const { return slots_.size() - free_slots_.size(); }

  /// Slots ever allocated — bounded by the peak number of simultaneously
  /// outstanding events, never by cancellation volume (tested).
  size_t slot_pool_size() const { return slots_.size(); }

  /// Heap entries, including stale entries for cancelled events that have
  /// not been dropped yet: at most 2 * pending_events() + kStaleSlack.
  size_t queue_depth() const { return heap_.size(); }

  /// Simulation-wide RNG (fork per component for independence).
  Rng* rng() { return &rng_; }

 private:
  /// Pooled home of one event's callable. `generation` advances every time
  /// the slot is retired (fire or cancel), invalidating stale EventIds and
  /// stale heap entries alike.
  struct Slot {
    EventFn fn;
    uint32_t generation = 1;
  };

  /// Heap entries are small PODs ordered by (time, seq); the callable
  /// stays in its slot until popped, so sift operations move 24 bytes
  /// instead of a closure.
  struct HeapEntry {
    SimTime time;
    uint64_t seq;  ///< Monotonic; FIFO among equal times.
    uint32_t slot;
    uint32_t generation;
  };

  // EventId layout: [generation:32][owner_tag:8][slot:24]. The slot pool
  // is capped at 2^24 simultaneously-outstanding events (far above any
  // observed peak; asserted in AcquireSlot) so the owner tag rides in the
  // id without widening it.
  static constexpr uint32_t kSlotMask = 0x00ffffffu;
  static constexpr uint32_t kMaxSlots = 1u << 24;
  /// High bit of HeapEntry::seq marks cross-loop arrivals; local seq
  /// counters are monotonically assigned from 1 and never reach it.
  static constexpr uint64_t kCrossOrderBit = 1ull << 63;

  EventId MakeId(uint32_t slot, uint32_t generation) const {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(owner_tag_) << 24) | slot;
  }

  bool Earlier(const HeapEntry& a, const HeapEntry& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// True for the entry of a cancelled event: its slot has moved on.
  bool Stale(const HeapEntry& e) const {
    return slots_[e.slot].generation != e.generation;
  }

  uint32_t AcquireSlot(EventFn fn);
  void RetireSlot(uint32_t slot);

  void HeapPush(HeapEntry entry);
  void HeapPopTop();
  /// Moves the hole at `i` down until `entry` fits there.
  void SiftDown(size_t i, HeapEntry entry);

  /// Rebuilds the heap from its live entries once the stale ones
  /// outnumber them by more than kStaleSlack. Pop order cannot change:
  /// it is (time, seq), and no two entries share both.
  void MaybeDropStale() {
    if (stale_ > heap_.size() - stale_ + kStaleSlack) DropStale();
  }
  void DropStale();

  /// Drops stale (cancelled) heads, then reports the next live event time.
  bool PeekTime(SimTime* when);
  /// Pops the next live event, moving its callable out; false when empty.
  bool PopNext(SimTime* when, EventFn* fn);

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  uint32_t owner_tag_ = 0;
  bool stopped_ = false;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap.
  size_t stale_ = 0;             ///< Entries in heap_ of cancelled events.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  Rng rng_;
};

// The per-event path (schedule, cancel, pop, dispatch) is defined inline:
// at ~10M+ events/s every call boundary matters, and the translation units
// driving the simulator (network, replicas, benches) are distinct from
// simulator.cc, so out-of-line definitions would always cross an
// optimization barrier.

inline uint32_t Simulator::AcquireSlot(EventFn fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    assert(slot < kMaxSlots && "event slot pool exceeds 2^24 outstanding");
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  return slot;
}

inline void Simulator::RetireSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventFn();
  // Skip generation 0 on wrap so MakeId can never produce 0 (the
  // documented never-valid id). A stale id can still alias after a full
  // 2^32 retires of one slot — i.e. only if a caller sits on an EventId
  // across ~4 billion reuses of that slot without firing or cancelling
  // it, which no protocol timer does.
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

inline void Simulator::HeapPush(HeapEntry entry) {
  // Bubble a hole up instead of swapping: one store per level.
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!Earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

inline void Simulator::HeapPopTop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
}

inline void Simulator::SiftDown(size_t i, const HeapEntry entry) {
  // Sift the hole down, placing `entry` once at its final level.
  const size_t n = heap_.size();
  while (true) {
    size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

inline EventId Simulator::Schedule(SimDuration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

inline EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  if (when < now_) when = now_;
  uint32_t slot = AcquireSlot(std::move(fn));
  uint32_t generation = slots_[slot].generation;
  HeapPush(HeapEntry{when, next_seq_++, slot, generation});
  return MakeId(slot, generation);
}

inline EventId Simulator::ScheduleCrossAt(SimTime when, uint64_t order,
                                          EventFn fn) {
  // The causality assertion of the conservative engine: an arrival
  // earlier than the receiver's clock means some loop executed past the
  // link's lookahead floor. Release builds clamp (delivering late beats
  // time travel) but the invariant is enforced wherever asserts are on.
  assert(when >= now_ && "cross-loop arrival in the receiver's past");
  if (when < now_) when = now_;
  uint32_t slot = AcquireSlot(std::move(fn));
  uint32_t generation = slots_[slot].generation;
  HeapPush(HeapEntry{when, kCrossOrderBit | order, slot, generation});
  return MakeId(slot, generation);
}

inline bool Simulator::Cancel(EventId id) {
  // Owner check first: an id minted by another loop's Simulator must not
  // index into this pool — the slot bits would alias an unrelated local
  // event and cancelling it would corrupt a heap owned (in parallel
  // runs) by another thread.
  if (static_cast<uint32_t>((id >> 24) & 0xffu) != owner_tag_) return false;
  uint32_t slot = static_cast<uint32_t>(id & kSlotMask);
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  // Pending means: the stamp matches AND the slot holds a callable. The
  // stamp alone is not enough — a retired slot keeps its (incremented)
  // generation while sitting in the free list, so a forged id could
  // match it and a double-retire would corrupt the free list. Fired and
  // cancelled events both retire the slot, advancing the stamp; the heap
  // entry stays behind and is skipped on pop by the same stamp check.
  if (slots_[slot].generation != generation || !slots_[slot].fn) return false;
  RetireSlot(slot);
  ++stale_;
  MaybeDropStale();
  return true;
}

inline bool Simulator::PeekTime(SimTime* when) {
  while (!heap_.empty()) {
    if (!Stale(heap_.front())) {
      *when = heap_.front().time;
      return true;
    }
    HeapPopTop();  // Cancelled; its slot is already recycled.
    --stale_;
  }
  return false;
}

inline bool Simulator::PopNext(SimTime* when, EventFn* fn) {
  SimTime t;
  if (!PeekTime(&t)) return false;
  const HeapEntry top = heap_.front();
  *when = t;
  *fn = std::move(slots_[top.slot].fn);
  // Retire before invoking so a handler cancelling its own id is a no-op
  // and the slot is immediately reusable by events it schedules.
  RetireSlot(top.slot);
  HeapPopTop();
  MaybeDropStale();
  return true;
}

inline bool Simulator::Step() {
  SimTime when;
  EventFn fn;
  if (!PopNext(&when, &fn)) return false;
  now_ = when;
  ++events_executed_;
  fn();
  return true;
}

}  // namespace sbft::sim

#endif  // SBFT_SIM_SIMULATOR_H_
