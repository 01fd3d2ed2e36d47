#include "sim/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace sbft::sim {
namespace {

struct TestMsg : MessageBase {
  explicit TestMsg(int v) : value(v) {}
  int value;
};

/// Collects everything delivered to it.
class SinkActor : public Actor {
 public:
  SinkActor(ActorId id, Simulator* sim) : Actor(id, "sink"), sim_(sim) {}

  void OnMessage(const Envelope& env) override {
    received.push_back(env);
    times.push_back(sim_->now());
  }

  std::vector<Envelope> received;
  std::vector<SimTime> times;

 private:
  Simulator* sim_;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : sim_(7),
        net_(&sim_, RegionTable::Aws11(), NetworkConfig{}),
        a_(1, &sim_),
        b_(2, &sim_) {
    net_.Register(&a_, 0);
    net_.Register(&b_, 0);
  }

  static MessagePtr Msg(int v) { return std::make_shared<TestMsg>(v); }

  Simulator sim_;
  Network net_;
  SinkActor a_;
  SinkActor b_;
};

TEST_F(NetworkTest, DeliversMessages) {
  net_.Send(1, 2, Msg(42), 100);
  sim_.RunToCompletion();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(static_cast<const TestMsg*>(b_.received[0].message.get())->value,
            42);
  EXPECT_EQ(b_.received[0].from, 1u);
  EXPECT_EQ(net_.messages_delivered(), 1u);
}

TEST_F(NetworkTest, SameRegionDeliveryIsFast) {
  net_.Send(1, 2, Msg(1), 100);
  sim_.RunToCompletion();
  ASSERT_EQ(b_.times.size(), 1u);
  EXPECT_LT(b_.times[0], Millis(2));
}

TEST_F(NetworkTest, CrossRegionDeliveryTakesWanTime) {
  SinkActor far(3, &sim_);
  RegionId singapore = net_.regions().FindByName("ap-southeast-1");
  net_.Register(&far, singapore);
  net_.Send(1, 3, Msg(1), 100);
  sim_.RunToCompletion();
  ASSERT_EQ(far.times.size(), 1u);
  EXPECT_GT(far.times[0], Millis(50));  // One-way to Singapore.
}

TEST_F(NetworkTest, LargeMessagesIncurTransmissionDelay) {
  net_.Send(1, 2, Msg(1), 100);
  sim_.RunToCompletion();
  SimTime small_time = b_.times[0];

  SinkActor c(4, &sim_);
  net_.Register(&c, 0);
  net_.Send(1, 4, Msg(2), 100 * 1000 * 1000);  // 100 MB.
  sim_.RunToCompletion();
  ASSERT_EQ(c.times.size(), 1u);
  // 100MB at 10 Gbps = 80 ms of transmission.
  EXPECT_GT(c.times[0] - small_time, Millis(50));
}

TEST_F(NetworkTest, BroadcastReachesAllTargets) {
  SinkActor c(5, &sim_);
  net_.Register(&c, 0);
  net_.Broadcast(1, {2, 5}, Msg(9), 50);
  sim_.RunToCompletion();
  EXPECT_EQ(b_.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(NetworkTest, DisabledLinkDropsBothDirections) {
  net_.SetLinkEnabled(1, 2, false);
  net_.Send(1, 2, Msg(1), 10);
  net_.Send(2, 1, Msg(2), 10);
  sim_.RunToCompletion();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_TRUE(a_.received.empty());
  EXPECT_EQ(net_.messages_dropped(), 2u);

  net_.SetLinkEnabled(1, 2, true);
  net_.Send(1, 2, Msg(3), 10);
  sim_.RunToCompletion();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST_F(NetworkTest, DropProbabilityDropsRoughlyThatFraction) {
  NetworkConfig config;
  config.drop_probability = 0.5;
  Network lossy(&sim_, RegionTable::Aws11(), config);
  SinkActor x(10, &sim_), y(11, &sim_);
  lossy.Register(&x, 0);
  lossy.Register(&y, 0);
  const int kSends = 2000;
  for (int i = 0; i < kSends; ++i) {
    lossy.Send(10, 11, Msg(i), 10);
  }
  sim_.RunToCompletion();
  double rate = static_cast<double>(y.received.size()) / kSends;
  EXPECT_NEAR(rate, 0.5, 0.05);
}

TEST_F(NetworkTest, DuplicationDeliversTwice) {
  NetworkConfig config;
  config.duplicate_probability = 1.0;
  Network dup(&sim_, RegionTable::Aws11(), config);
  SinkActor x(10, &sim_), y(11, &sim_);
  dup.Register(&x, 0);
  dup.Register(&y, 0);
  dup.Send(10, 11, Msg(1), 10);
  sim_.RunToCompletion();
  EXPECT_EQ(y.received.size(), 2u);
}

TEST_F(NetworkTest, UnregisteredRecipientDrops) {
  net_.Send(1, 99, Msg(1), 10);
  sim_.RunToCompletion();
  EXPECT_EQ(net_.messages_dropped(), 1u);
}

TEST_F(NetworkTest, UnregisterDropsQueuedDeliveries) {
  net_.Send(1, 2, Msg(1), 10);
  net_.Unregister(2);
  sim_.RunToCompletion();
  EXPECT_TRUE(b_.received.empty());
}

TEST_F(NetworkTest, AttachedServerChargesCpu) {
  ServerResource cpu(&sim_, 1);
  net_.AttachServer(2, &cpu, [](const Envelope&) { return Millis(10); });
  net_.Send(1, 2, Msg(1), 10);
  net_.Send(1, 2, Msg(2), 10);
  sim_.RunToCompletion();
  ASSERT_EQ(b_.times.size(), 2u);
  // Second message queues behind the first on the single core.
  EXPECT_GE(b_.times[1] - b_.times[0], Millis(10));
  EXPECT_EQ(cpu.jobs_completed(), 2u);
}

TEST_F(NetworkTest, DeliveryObserverSeesDeliveries) {
  int observed = 0;
  net_.SetDeliveryObserver([&](const Envelope&) { ++observed; });
  net_.Send(1, 2, Msg(1), 10);
  net_.Send(2, 1, Msg(2), 10);
  sim_.RunToCompletion();
  EXPECT_EQ(observed, 2);
}

TEST_F(NetworkTest, ByteCountersAccumulate) {
  net_.Send(1, 2, Msg(1), 123);
  net_.Send(1, 2, Msg(2), 77);
  sim_.RunToCompletion();
  EXPECT_EQ(net_.bytes_sent(), 200u);
  EXPECT_EQ(net_.messages_sent(), 2u);
}

TEST_F(NetworkTest, LinkRuleDropsOnlyThatLink) {
  SinkActor c(3, &sim_);
  net_.Register(&c, 0);
  LinkRule rule;
  rule.drop_probability = 1.0;
  net_.SetLinkRule(1, 2, rule);
  constexpr int kSends = 50;
  for (int i = 0; i < kSends; ++i) {
    net_.Send(1, 2, Msg(i), 10);  // Ruled link: all dropped.
    net_.Send(1, 3, Msg(i), 10);  // Other link: untouched.
  }
  sim_.RunToCompletion();
  EXPECT_TRUE(b_.received.empty());
  EXPECT_EQ(c.received.size(), static_cast<size_t>(kSends));

  // Clearing the rule restores the link.
  net_.ClearLinkRule(1, 2);
  net_.Send(1, 2, Msg(0), 10);
  sim_.RunToCompletion();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST_F(NetworkTest, LinkRuleComposesWithGlobalDropKnob) {
  // Global 50% + link 50%: the two independent loss sources must compose
  // to ~75% loss through the single delivery decision.
  NetworkConfig config;
  config.drop_probability = 0.5;
  Network lossy(&sim_, RegionTable::Aws11(), config);
  SinkActor x(10, &sim_), y(11, &sim_);
  lossy.Register(&x, 0);
  lossy.Register(&y, 0);
  LinkRule rule;
  rule.drop_probability = 0.5;
  lossy.SetLinkRule(10, 11, rule);
  constexpr int kSends = 4000;
  for (int i = 0; i < kSends; ++i) lossy.Send(10, 11, Msg(i), 10);
  sim_.RunToCompletion();
  double rate = static_cast<double>(y.received.size()) / kSends;
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST_F(NetworkTest, LinkRuleExtraDelayIsAdded) {
  LinkRule rule;
  rule.extra_delay = Millis(25);
  net_.SetLinkRule(1, 2, rule);
  net_.Send(1, 2, Msg(1), 10);
  sim_.RunToCompletion();
  ASSERT_EQ(b_.times.size(), 1u);
  EXPECT_GE(b_.times[0], Millis(25));
}

TEST_F(NetworkTest, RegionPartitionCutsAndHeals) {
  SinkActor far(5, &sim_);
  net_.Register(&far, 2);
  net_.SetRegionPartition(0, 2, true);
  net_.Send(1, 5, Msg(1), 10);
  net_.Send(5, 1, Msg(2), 10);
  sim_.RunToCompletion();
  EXPECT_TRUE(far.received.empty());
  EXPECT_TRUE(a_.received.empty());
  EXPECT_EQ(net_.messages_dropped(), 2u);
  // Intra-region traffic is unaffected.
  net_.Send(1, 2, Msg(3), 10);
  sim_.RunToCompletion();
  EXPECT_EQ(b_.received.size(), 1u);

  net_.SetRegionPartition(0, 2, false);
  net_.Send(1, 5, Msg(4), 10);
  sim_.RunToCompletion();
  EXPECT_EQ(far.received.size(), 1u);
}

TEST_F(NetworkTest, ActorDelayLagsAllTraffic) {
  net_.SetActorDelay(2, Millis(10));
  net_.Send(1, 2, Msg(1), 10);   // Inbound to the skewed actor.
  net_.Send(2, 1, Msg(2), 10);   // Outbound from it.
  sim_.RunToCompletion();
  ASSERT_EQ(b_.times.size(), 1u);
  ASSERT_EQ(a_.times.size(), 1u);
  EXPECT_GE(b_.times[0], Millis(10));
  EXPECT_GE(a_.times[0], Millis(10));

  net_.SetActorDelay(2, 0);  // Cleared.
  net_.Send(1, 2, Msg(3), 10);
  sim_.RunToCompletion();
  ASSERT_EQ(b_.times.size(), 2u);
  EXPECT_LT(b_.times[1] - b_.times[0], Millis(10));
}

}  // namespace
}  // namespace sbft::sim
