#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/architecture.h"
#include "core/config.h"
#include "sim/simulator.h"

namespace sbft {
namespace {

using core::Architecture;
using core::SystemConfig;
using sim::ParallelSimulator;
using sim::Simulator;

// ---------------------------------------------------------------------------
// Engine-level tests against synthetic loops.
// ---------------------------------------------------------------------------

/// One recorded execution on a loop: (loop, simulated time).
struct Trace {
  std::vector<SimTime> times;  // Written only by the owning worker.
};

/// Ping-pong between loop 0 and loop 1 with a third (idle) loop present.
/// Returns the two loops' execution traces. `hops` events total.
struct PingPongResult {
  std::vector<SimTime> loop0;
  std::vector<SimTime> loop1;
  uint64_t cross_events = 0;
};

PingPongResult RunPingPong(int threads, int hops, SimDuration lookahead) {
  Simulator a(1), b(2), idle(3);
  ParallelSimulator::Options options;
  options.threads = threads;
  options.lookahead = lookahead;
  ParallelSimulator psim({&a, &b, &idle}, options);

  auto traces = std::make_shared<std::vector<Trace>>(2);
  // Each hop runs on the receiving loop, asserts causality (arrival never
  // behind the receiver's clock), records its time, and posts the next
  // hop back across.
  struct Hopper {
    ParallelSimulator* psim;
    std::vector<Simulator*> sims;
    std::shared_ptr<std::vector<Trace>> traces;
    SimDuration lookahead;
    int remaining;
    void Hop(int loop) {
      Simulator* sim = sims[loop];
      (*traces)[loop].times.push_back(sim->now());
      if (--remaining <= 0) return;
      int to = 1 - loop;
      psim->Post(to, sim->now() + lookahead, [this, to] { Hop(to); });
    }
  };
  auto hopper = std::make_shared<Hopper>();
  hopper->psim = &psim;
  hopper->sims = {&a, &b};
  hopper->traces = traces;
  hopper->lookahead = lookahead;
  hopper->remaining = hops;

  a.Schedule(0, [hopper] { hopper->Hop(0); });
  psim.RunUntil(Seconds(10));

  PingPongResult result;
  result.loop0 = (*traces)[0].times;
  result.loop1 = (*traces)[1].times;
  result.cross_events = psim.cross_events();
  return result;
}

TEST(ParallelSimulatorTest, PingPongCausalityAndExactTimes) {
  const SimDuration la = Micros(100);
  PingPongResult r = RunPingPong(/*threads=*/3, /*hops=*/64, la);
  ASSERT_EQ(r.loop0.size(), 32u);
  ASSERT_EQ(r.loop1.size(), 32u);
  // Hop k executes at exactly k * lookahead, alternating loops, and each
  // loop's execution times are strictly increasing (causality).
  for (size_t k = 0; k < r.loop0.size(); ++k) {
    EXPECT_EQ(r.loop0[k], static_cast<SimTime>(2 * k) * la);
    EXPECT_EQ(r.loop1[k], static_cast<SimTime>(2 * k + 1) * la);
    if (k > 0) {
      EXPECT_GT(r.loop0[k], r.loop0[k - 1]);
      EXPECT_GT(r.loop1[k], r.loop1[k - 1]);
    }
  }
  EXPECT_EQ(r.cross_events, 63u);  // Every hop but the seed crosses.
}

TEST(ParallelSimulatorTest, TraceIdenticalAcrossThreadCounts) {
  const SimDuration la = Micros(100);
  PingPongResult one = RunPingPong(1, 64, la);
  PingPongResult two = RunPingPong(2, 64, la);
  PingPongResult three = RunPingPong(3, 64, la);
  EXPECT_EQ(one.loop0, two.loop0);
  EXPECT_EQ(one.loop1, two.loop1);
  EXPECT_EQ(one.loop0, three.loop0);
  EXPECT_EQ(one.loop1, three.loop1);
  EXPECT_EQ(one.cross_events, three.cross_events);
}

TEST(ParallelSimulatorTest, ClocksEndAtDeadline) {
  Simulator a(1), b(2);
  ParallelSimulator::Options options;
  options.threads = 2;
  options.lookahead = Micros(50);
  ParallelSimulator psim({&a, &b}, options);
  int fired = 0;
  a.Schedule(Millis(1), [&fired] { ++fired; });
  psim.RunUntil(Millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(a.now(), Millis(5));
  EXPECT_EQ(b.now(), Millis(5));
  // A second window continues from where the first stopped.
  b.Schedule(Millis(1), [&fired] { ++fired; });
  psim.RunUntil(Millis(8));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(b.now(), Millis(8));
}

// ---------------------------------------------------------------------------
// Foreign-loop EventId rejection (owner tags).
// ---------------------------------------------------------------------------

TEST(ParallelSimulatorTest, CancelRejectsForeignLoopId) {
  Simulator plane(1), global(2);
  ParallelSimulator::Options options;
  options.threads = 1;
  ParallelSimulator psim({&plane, &global}, options);  // plane gets tag 1.
  ASSERT_EQ(plane.owner_tag(), 1u);
  ASSERT_EQ(global.owner_tag(), 0u);

  int fired = 0;
  sim::EventId plane_event = plane.Schedule(Millis(1), [&fired] { ++fired; });
  // The global loop must not be able to cancel (or corrupt) a foreign
  // handle: same slot index, different owner tag.
  EXPECT_FALSE(global.Cancel(plane_event));
  // And an id from the tag-0 loop is rejected by the tagged loop.
  sim::EventId global_event = global.Schedule(Millis(1), [&fired] { ++fired; });
  EXPECT_FALSE(plane.Cancel(global_event));
  psim.RunUntil(Millis(2));
  EXPECT_EQ(fired, 2);  // Both events survived the foreign Cancels.
  // The owner itself can cancel as usual.
  sim::EventId again = plane.Schedule(Millis(1), [&fired] { ++fired; });
  EXPECT_TRUE(plane.Cancel(again));
  psim.RunUntil(Millis(4));
  EXPECT_EQ(fired, 2);
}

// ---------------------------------------------------------------------------
// Whole-architecture determinism: per-shard audit digests and client
// counters must be a pure function of (config, seed) — not of the worker
// thread count, and not of the run.
// ---------------------------------------------------------------------------

struct ArchResult {
  std::vector<Bytes> audit_heads;
  std::vector<size_t> audit_sizes;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t cross_loop = 0;
  // Network totals, summed over the loops' counters.
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  // Executor key retirement, summed over planes.
  uint64_t executors_spawned = 0;
  size_t executor_keys = 0;  // Registry entries added since construction.
  size_t key_bound = 0;      // (unsettled spawned batches) x n_E + live.
  std::vector<SeqNum> settled;
};

ArchResult RunShardedParallel(int threads, uint64_t seed) {
  SystemConfig config;
  config.shard_count = 4;
  config.num_clients = 24;
  config.seed = seed;
  config.sim_threads = threads;
  Architecture arch(config);
  EXPECT_EQ(arch.parallel(), threads > 0);
  const size_t static_keys = arch.keys()->size();
  arch.Start();
  arch.RunUntil(Seconds(1));

  ArchResult result;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    result.audit_heads.push_back(
        arch.plane(s)->verifier()->audit_log().head().ToBytes());
    result.audit_sizes.push_back(arch.plane(s)->verifier()->audit_log().size());
    const core::Spawner* spawner = arch.plane(s)->spawner();
    result.executors_spawned += spawner->executors_spawned();
    result.key_bound +=
        (spawner->batches_spawned() - spawner->settled_seq()) *
            config.EffectiveExecutors() +
        arch.plane(s)->cloud()->active_executors();
    result.settled.push_back(spawner->settled_seq());
  }
  result.executor_keys = arch.keys()->size() - static_keys;
  result.completed = arch.TotalCompleted();
  result.aborted = arch.TotalAborted();
  result.cross_loop = arch.network()->cross_loop_messages();
  result.messages_sent = arch.network()->messages_sent();
  result.messages_delivered = arch.network()->messages_delivered();
  result.messages_dropped = arch.network()->messages_dropped();
  result.bytes_sent = arch.network()->bytes_sent();
  return result;
}

TEST(ParallelArchitectureTest, CompletesWorkAcrossLoops) {
  ArchResult r = RunShardedParallel(/*threads=*/2, /*seed=*/2023);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.cross_loop, 0u);  // Clients live on the global loop.
  uint64_t audited = 0;
  for (size_t sz : r.audit_sizes) audited += sz;
  EXPECT_GT(audited, 0u);
}

TEST(ParallelArchitectureTest, DigestsIdenticalAcrossThreadCounts) {
  ArchResult one = RunShardedParallel(1, 2023);
  ArchResult two = RunShardedParallel(2, 2023);
  ArchResult four = RunShardedParallel(4, 2023);
  EXPECT_EQ(one.audit_heads, two.audit_heads);
  EXPECT_EQ(one.audit_heads, four.audit_heads);
  EXPECT_EQ(one.audit_sizes, four.audit_sizes);
  EXPECT_EQ(one.completed, two.completed);
  EXPECT_EQ(one.completed, four.completed);
  EXPECT_EQ(one.aborted, four.aborted);
  for (const ArchResult* r : {&two, &four}) {
    EXPECT_EQ(one.messages_sent, r->messages_sent);
    EXPECT_EQ(one.messages_delivered, r->messages_delivered);
    EXPECT_EQ(one.messages_dropped, r->messages_dropped);
    EXPECT_EQ(one.bytes_sent, r->bytes_sent);
  }
  EXPECT_GT(one.messages_delivered, 0u);
}

TEST(ParallelArchitectureTest, RetiresExecutorKeysIdenticallyAcrossThreads) {
  // Each plane's loop retires its own executors' keys in the shared
  // registry while the other loops sign and verify: the registry stays
  // within the planes' settle lag, and retiring changes nothing a thread
  // count could expose.
  ArchResult one = RunShardedParallel(1, 2023);
  ArchResult two = RunShardedParallel(2, 2023);
  EXPECT_GT(two.executors_spawned, 200u);
  EXPECT_LE(two.executor_keys, two.key_bound);
  EXPECT_LT(two.executor_keys, two.executors_spawned / 10);
  EXPECT_EQ(one.executor_keys, two.executor_keys);
  EXPECT_EQ(one.settled, two.settled);
  EXPECT_EQ(one.audit_heads, two.audit_heads);
}

TEST(ParallelArchitectureTest, DigestsIdenticalAcrossRepeatedRuns) {
  ArchResult first = RunShardedParallel(2, 7);
  ArchResult second = RunShardedParallel(2, 7);
  EXPECT_EQ(first.audit_heads, second.audit_heads);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.aborted, second.aborted);
  // And a different seed actually changes the run (the digests are not
  // vacuous constants).
  ArchResult other = RunShardedParallel(2, 8);
  EXPECT_NE(first.audit_heads, other.audit_heads);
}

}  // namespace
}  // namespace sbft
