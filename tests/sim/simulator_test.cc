#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sbft::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Millis(30), [&]() { order.push_back(3); });
  sim.Schedule(Millis(10), [&]() { order.push_back(1); });
  sim.Schedule(Millis(20), [&]() { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Millis(5), [&order, i]() { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.Schedule(Micros(1500), [&]() { observed = sim.now(); });
  sim.RunToCompletion();
  EXPECT_EQ(observed, Micros(1500));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(-5, [&]() { fired = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.Schedule(Millis(1), [&]() {
    sim.Schedule(Millis(2), [&]() { inner_time = sim.now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(inner_time, Millis(3));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Millis(1), [&]() { fired = true; });
  sim.Cancel(id);
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int count = 0;
  EventId id = sim.Schedule(Millis(1), [&]() { ++count; });
  sim.RunToCompletion();
  sim.Cancel(id);  // Already fired.
  sim.RunToCompletion();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Millis(10), [&]() { ++fired; });
  sim.Schedule(Millis(20), [&]() { ++fired; });
  sim.RunUntil(Millis(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Millis(15));
  sim.RunUntil(Millis(25));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(sim.now(), Seconds(1));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Millis(1), [&]() {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Millis(2), [&]() { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  // Remaining events still pending; a new run picks them up.
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Millis(i), []() {});
  }
  sim.RunToCompletion();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime when = 0;
  sim.ScheduleAt(Millis(7), [&]() { when = sim.now(); });
  sim.RunToCompletion();
  EXPECT_EQ(when, Millis(7));
}

TEST(SimulatorTest, MoveOnlyCaptureIsSchedulable) {
  // EventFn is move-only, so captures that std::function rejected
  // (unique_ptr et al.) now schedule directly.
  Simulator sim;
  auto payload = std::make_unique<int>(42);
  int got = 0;
  sim.Schedule(Millis(1), [p = std::move(payload), &got]() { got = *p; });
  sim.RunToCompletion();
  EXPECT_EQ(got, 42);
}

TEST(SimulatorTest, OversizedCaptureFallsBackToHeap) {
  Simulator sim;
  std::array<char, 3 * EventFn::kInlineBytes> big{};
  big[0] = 7;
  big[big.size() - 1] = 9;
  int got = 0;
  sim.Schedule(Millis(1), [big, &got]() { got = big[0] + big[big.size() - 1]; });
  sim.RunToCompletion();
  EXPECT_EQ(got, 16);
}

TEST(SimulatorTest, StaleIdDoesNotCancelSlotReuse) {
  // After `a` is cancelled its slot may be reused by `b`; the stale id
  // must not cancel the new occupant (generation stamp mismatch).
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  EventId a = sim.Schedule(Millis(1), [&]() { a_fired = true; });
  sim.Cancel(a);
  EventId b = sim.Schedule(Millis(2), [&]() { b_fired = true; });
  sim.Cancel(a);  // Stale: same slot, older generation.
  sim.RunToCompletion();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_NE(a, b);
}

TEST(SimulatorTest, CancelNeverIssuedIdIsNoop) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Millis(1), [&]() { fired = true; });
  sim.Cancel(0);
  sim.Cancel(0xffffffffffffffffULL);
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ForgedIdMatchingFreeSlotIsNoop) {
  // A retired slot keeps its advanced generation while in the free list;
  // a forged id matching it must not double-retire the slot (which would
  // duplicate the free-list entry and silently drop a later event).
  Simulator sim;
  sim.Schedule(Millis(1), []() {});
  sim.RunToCompletion();  // Slot 0 is now free with a bumped generation.
  for (uint64_t generation = 0; generation < 8; ++generation) {
    sim.Cancel((generation << 32) | 0);  // Forged ids for free slot 0.
  }
  int fired = 0;
  sim.Schedule(Millis(1), [&]() { ++fired; });
  sim.Schedule(Millis(2), [&]() { ++fired; });
  sim.Schedule(Millis(3), [&]() { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, SelfCancelDuringExecutionIsNoop) {
  Simulator sim;
  int count = 0;
  EventId id = 0;
  id = sim.Schedule(Millis(1), [&]() {
    ++count;
    sim.Cancel(id);  // Own id: already retired, must be a no-op.
    sim.Schedule(Millis(1), [&]() { ++count; });
  });
  sim.RunToCompletion();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, SlotPoolDrainsAfterRun) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(Millis(i % 7), []() {});
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.RunToCompletion();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.queue_depth(), 0u);
}

// The stress gate: 100k schedule/cancel operations interleaved with
// partial runs. Verifies (a) firing order is exactly the documented
// (time, scheduling order) semantics via an independent reference model,
// and (b) cancellation leaves no per-cancel residue — the slot pool is
// bounded by peak concurrency, not by cancellation volume (the old
// tombstone set grew with every Cancel of a long run), and the heap by
// twice the pending events plus the stale slack, since its cancelled
// entries are dropped once they outnumber the live ones.
TEST(SimulatorStressTest, InterleavedCancelStorm100k) {
  constexpr int kWaves = 50;
  constexpr int kPerWave = 2000;
  constexpr int kTotal = kWaves * kPerWave;

  Simulator sim;
  Rng rng(0xbadcafe);

  struct Record {
    EventId id = 0;
    SimTime time = 0;
    bool fired = false;
    bool cancelled = false;
  };
  std::vector<Record> records(kTotal);
  std::vector<int> fired_order;
  fired_order.reserve(kTotal);

  size_t peak_pending = 0;
  size_t peak_depth = 0;
  auto expect_heap_bounded = [&]() {
    peak_depth = std::max(peak_depth, sim.queue_depth());
    EXPECT_LE(sim.queue_depth(),
              2 * sim.pending_events() + Simulator::kStaleSlack);
  };
  int label = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (int i = 0; i < kPerWave; ++i, ++label) {
      SimTime when = sim.now() + static_cast<SimDuration>(
                                     Micros(1 + rng.Uniform(5000)));
      records[label].time = when;
      records[label].id = sim.ScheduleAt(when, [&records, &fired_order,
                                                label]() {
        records[label].fired = true;
        fired_order.push_back(label);
      });
    }
    peak_pending = std::max(peak_pending, sim.pending_events());
    // Cancel a swath of arbitrary earlier events — many already fired
    // (no-op path), many pending (real cancellation).
    for (int i = 0; i < kPerWave * 3 / 4; ++i) {
      int victim = static_cast<int>(rng.Uniform(label));
      Record& r = records[victim];
      sim.Cancel(r.id);
      if (!r.fired && !r.cancelled) r.cancelled = true;
      if (i % 100 == 0) expect_heap_bounded();
    }
    expect_heap_bounded();
    // Advance partway so waves overlap with live events.
    sim.RunUntil(sim.now() + Micros(2500));
    expect_heap_bounded();
  }
  sim.RunToCompletion();

  // No residue: everything fired or was cancelled, and the pool is sized
  // by peak concurrency only.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.queue_depth(), 0u);
  EXPECT_LE(sim.slot_pool_size(), peak_pending);
  EXPECT_LE(peak_depth, 2 * peak_pending + Simulator::kStaleSlack);
  EXPECT_EQ(sim.events_executed(), fired_order.size());

  // Reference model: survivors fire ordered by (time, scheduling order).
  std::vector<int> expected;
  expected.reserve(kTotal);
  for (int l = 0; l < kTotal; ++l) {
    if (!records[l].cancelled) expected.push_back(l);
  }
  std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
    return records[a].time < records[b].time;
  });
  ASSERT_EQ(fired_order.size(), expected.size());
  EXPECT_EQ(fired_order, expected);
  for (int l = 0; l < kTotal; ++l) {
    EXPECT_NE(records[l].fired, records[l].cancelled) << "label " << l;
  }
}

}  // namespace
}  // namespace sbft::sim
