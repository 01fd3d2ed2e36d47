#ifndef SBFT_SIM_PARALLEL_H_
#define SBFT_SIM_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/sim_time.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"

namespace sbft::sim {

/// One timestamped closure crossing from one event loop to another.
/// `order` is the deterministic tie-break key: (source loop, per-channel
/// sequence), so the receiving heap's order among equal-time arrivals is
/// a pure function of the simulation, not of drain timing.
struct CrossEvent {
  SimTime when = 0;
  uint64_t order = 0;
  EventFn fn;
};

/// \brief Bounded single-producer single-consumer ring of CrossEvents.
///
/// Exactly one thread pushes (the sender loop's worker) and one pops (the
/// receiver loop's worker), so head/tail are plain acquire/release
/// counters and the payload never needs a lock. Capacity is a power of
/// two; a full ring makes the producer back off (see ParallelSimulator::
/// Post — it drains its own inbox while waiting, which breaks the only
/// possible wait cycle).
class SpscChannel {
 public:
  explicit SpscChannel(size_t capacity_pow2)
      : ring_(capacity_pow2), mask_(capacity_pow2 - 1) {}

  bool TryPush(CrossEvent&& ev) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    ring_[tail & mask_] = std::move(ev);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(CrossEvent* ev) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    *ev = std::move(ring_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer-side per-channel sequence for deterministic ordering keys.
  uint64_t NextSeq() { return next_seq_++; }

 private:
  std::vector<CrossEvent> ring_;
  const uint64_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};  // Consumer cursor.
  alignas(64) std::atomic<uint64_t> tail_{0};  // Producer cursor.
  uint64_t next_seq_ = 0;                      // Producer-only.
};

/// \brief Conservative-lookahead composer over per-loop Simulators
/// (DESIGN.md §11).
///
/// Each Simulator in `loops` owns one event heap; by convention the last
/// entry is the "global" loop (clients, traffic sources, coordinator
/// group) and the others are one per ShardPlane. Worker threads statically
/// partition the loops (loop % threads) and run the bounded-window round:
///
///   1. snapshot S = min over the other loops' published channel clocks,
///   2. drain every inbound mailbox into the local heap,
///   3. publish this loop's clock: min(heap head, S + lookahead),
///   4. execute events with time < min(S + lookahead, deadline + 1).
///
/// A loop's published clock is a promise: every message it will ever
/// send from now on arrives at or after clock + lookahead. The
/// min(head, S + lookahead) form (the Chandy–Misra–Bryant output clock)
/// is what makes the promise transitive — the S term covers sends this
/// loop will make on behalf of events it has not even received yet, so
/// a third loop can never race past the arrival time of a reply that is
/// still transiting through an intermediate loop's mailbox. Clocks are
/// monotone (S never shrinks; drained arrivals are themselves >= the
/// old clock + lookahead), which closes the in-flight gap: a message
/// enqueued after a receiver's drain was sent after its sender's
/// re-publish, so — snapshot taken *before* the drain, sender enqueuing
/// with release *before* publishing — its arrival time is >= S +
/// lookahead, beyond the window the receiver executes. Deadlock-freedom:
/// the loop holding the globally minimal clock always finds
/// S + lookahead strictly above its own head, so it executes; every
/// other loop's next publish strictly raises its clock. Publishing
/// doubles as the null message, so idle loops advance their peers
/// instead of stalling them.
///
/// Determinism: the logical loop structure is fixed by the architecture
/// (not by `threads`), heap tie-breaks use intrinsic (source loop,
/// channel seq) keys, and every rng stream is forked per loop — so the
/// per-loop event sequences, and everything derived from them, are
/// identical for any thread count and any interleaving.
class ParallelSimulator {
 public:
  struct Options {
    /// Worker threads; clamped to [1, loops]. This only multiplexes the
    /// loops over cores — results are independent of it.
    int threads = 1;
    /// Minimum cross-loop delivery latency (> 0), derived from the
    /// network's region table (Network::CrossLoopFloor).
    SimDuration lookahead = Micros(250);
    /// Per-channel mailbox capacity (power of two).
    size_t channel_capacity = 1 << 12;
  };

  ParallelSimulator(std::vector<Simulator*> loops, Options options);
  ~ParallelSimulator();

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  int num_loops() const { return static_cast<int>(loops_.size()); }
  /// The global loop's index (clients / sources / coordinator group).
  int global_loop() const { return num_loops() - 1; }
  Simulator* loop(int i) { return loops_[i]; }
  SimDuration lookahead() const { return options_.lookahead; }

  /// The loop the calling thread is executing (its own loop inside
  /// RunUntil; the global loop for the main thread outside it).
  int CurrentLoop() const;

  /// Enqueues `fn` to run at `when` on loop `to`, from the current loop.
  /// Asserts the lookahead floor: when >= sender now + lookahead.
  void Post(int to, SimTime when, EventFn fn);

  /// Runs all loops to `deadline` (inclusive), then snaps every clock to
  /// it — the multi-loop equivalent of Simulator::RunUntil. Blocks until
  /// the round protocol detects completion (no event <= deadline left
  /// anywhere, nothing in flight).
  void RunUntil(SimTime deadline);

  /// Cross-loop events posted so far (diagnostics / tests).
  uint64_t cross_events() const {
    return sent_.load(std::memory_order_relaxed);
  }
  /// Worker passes over a loop (RunRound calls) summed across all
  /// workers, idle passes that found no work included (diagnostics). It
  /// is not a count of synchronization rounds: it depends on the thread
  /// count and on timing. The 4-plane architecture of
  /// ParallelArchitectureTest (seed 2023, 1 s, 10,486 events) makes
  /// 18,330 passes on 1 thread in every run, but made 184k-344k on 2
  /// threads and 133k-2.07M on 4 over a few runs.
  uint64_t rounds() const { return rounds_.load(std::memory_order_relaxed); }

 private:
  /// Heap-head sentinel while a loop has no event: far future, small
  /// enough that + lookahead cannot overflow.
  static constexpr SimTime kIdle = INT64_MAX / 4;

  struct alignas(64) LoopState {
    /// The loop's channel clock: min(heap head, last snapshot +
    /// lookahead) — a monotone lower bound on (arrival time - lookahead)
    /// of anything it may still send. Written by the owner worker, read
    /// by everyone.
    std::atomic<SimTime> published{0};
    /// Lower bound on the loop's next pending event (kIdle = heap seen
    /// empty). Stored by the owner each round and *lowered before the
    /// drained count is bumped* when a cross event lands, so CheckDone's
    /// exhaustion fast-path can never observe a fully-drained system
    /// while missing an arrival that still has to run. May be stale-low
    /// (an already-executed event's time) — that only delays
    /// termination by one round, never declares it early.
    std::atomic<SimTime> head{kIdle};
  };

  SpscChannel* ChannelFor(int from, int to);
  /// Drains every inbound mailbox of `loop` into its heap. Returns the
  /// number of events moved. Safe to call mid-execute (Post's backoff):
  /// every arrival is at or beyond the current window limit, so the heap
  /// only gains future work.
  uint64_t DrainInbox(int loop);
  /// One snapshot/drain/publish/execute round; returns events executed
  /// plus drained (0 = no progress).
  uint64_t RunRound(int loop, SimTime deadline);
  /// Double-scan termination detection over (sent, drained, published,
  /// head). Done when nothing is in flight and either every clock passed
  /// the deadline, or — the exhaustion fast-path — no loop has a pending
  /// event at or before it (the serial RunUntil stop condition; spares
  /// the clocks a lookahead-per-round climb to a far deadline).
  bool CheckDone(SimTime deadline);
  void WorkerBody(int worker, int stride, SimTime deadline);

  std::vector<Simulator*> loops_;
  Options options_;
  std::vector<LoopState> states_;
  /// Lazily-allocated full mesh, index from * L + to. Only pairs that
  /// actually talk allocate a ring (plane <-> global in this system).
  std::vector<std::atomic<SpscChannel*>> channels_;
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> drained_{0};
  std::atomic<uint64_t> rounds_{0};
  std::atomic<bool> done_{false};
};

}  // namespace sbft::sim

#endif  // SBFT_SIM_PARALLEL_H_
