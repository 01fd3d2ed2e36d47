// Unit tests for the closed-loop discipline of the request source (a
// TrafficSource with no arrival process): τ_m timeout handling, Fig. 4
// retransmission to the verifier with exponential backoff, latency
// recording, abort accounting, and Pause().

#include <gtest/gtest.h>

#include "core/traffic_source.h"
#include "sim/region.h"
#include "workload/ycsb.h"

namespace sbft::core {
namespace {

/// Records requests; replies only when told to.
struct ScriptedServer : sim::Actor {
  ScriptedServer(ActorId id, sim::Simulator* sim, sim::Network* net)
      : Actor(id, "scripted"), sim_(sim), net_(net) {}

  void OnMessage(const sim::Envelope& env) override {
    auto msg = std::static_pointer_cast<const shim::Message>(env.message);
    if (msg->kind != shim::MsgKind::kClientRequest) return;
    auto req = std::static_pointer_cast<const shim::ClientRequestMsg>(msg);
    requests.push_back(req);
    if (respond) {
      auto resp = std::make_shared<shim::ResponseMsg>(id());
      resp->txn_id = req->txn.id;
      resp->client = req->txn.client;
      resp->aborted = abort_next;
      net_->Send(id(), env.from, resp, resp->WireSize());
    }
  }

  sim::Simulator* sim_;
  sim::Network* net_;
  std::vector<std::shared_ptr<const shim::ClientRequestMsg>> requests;
  bool respond = true;
  bool abort_next = false;
};

class ClientTest : public ::testing::Test {
 protected:
  ClientTest()
      : sim_(3),
        net_(&sim_, sim::RegionTable::Aws11(), {}),
        keys_(crypto::CryptoMode::kFast, 2),
        primary_(10, &sim_, &net_),
        verifier_(20, &sim_, &net_),
        generator_(SmallWorkload(), Rng(4)) {
    keys_.RegisterNode(10);
    keys_.RegisterNode(20);
    keys_.RegisterNode(100);
    // Another client, whose DS must not pass as 100's.
    keys_.RegisterNode(101);
    net_.Register(&primary_, 0);
    net_.Register(&verifier_, 0);
    workload::TrafficConfig traffic;
    traffic.retry_timeout = Millis(100);
    client_ = std::make_unique<TrafficSource>(
        100, [this](const workload::Transaction&) { return primary_id_; },
        [](const workload::Transaction&) { return ActorId{20}; },
        &generator_, /*workflow=*/nullptr, &keys_, &sim_, &net_,
        /*arrivals=*/nullptr, Rng(0), traffic, &gauge_);
    client_->SetLatencyResolver(
        [this](const workload::Transaction&) { return &latency_; });
    net_.Register(client_.get(), 0);
  }

  static workload::YcsbConfig SmallWorkload() {
    workload::YcsbConfig config;
    config.record_count = 100;
    return config;
  }

  sim::Simulator sim_;
  sim::Network net_;
  crypto::KeyRegistry keys_;
  ScriptedServer primary_;
  ScriptedServer verifier_;
  workload::YcsbGenerator generator_;
  ActorId primary_id_ = 10;
  Histogram latency_;
  InflightGauge gauge_;
  std::unique_ptr<TrafficSource> client_;
};

TEST_F(ClientTest, ClosedLoopSendsNextAfterResponse) {
  client_->Start();
  sim_.RunUntil(Millis(50));
  EXPECT_GT(primary_.requests.size(), 3u);
  EXPECT_EQ(client_->completed(), primary_.requests.size());
  EXPECT_EQ(client_->retransmissions(), 0u);
}

TEST_F(ClientTest, RequestsAreSigned) {
  client_->Start();
  sim_.RunUntil(Millis(5));
  ASSERT_GE(primary_.requests.size(), 1u);
  // Every request the server received carries the client's own DS over
  // its signed fields, and the floor just below its id: one request is
  // outstanding at a time, so every earlier one was answered.
  for (const auto& req : primary_.requests) {
    EXPECT_EQ(req->txn.client, 100u);
    EXPECT_TRUE(keys_.Verify(
        100, shim::ClientRequestMsg::SigningBytes(req->txn),
        req->client_sig));
    EXPECT_EQ(req->txn.floor, req->txn.id - 1);
  }
}

TEST_F(ClientTest, TimeoutRetransmitsToVerifier) {
  primary_.respond = false;   // Fig. 4: primary suppresses the request.
  verifier_.respond = false;  // Keep the client stuck on this txn.
  client_->Start();
  sim_.RunUntil(Millis(150));
  EXPECT_EQ(primary_.requests.size(), 1u);  // Never re-sent to the primary.
  EXPECT_GE(client_->retransmissions(), 1u);
  EXPECT_GE(verifier_.requests.size(), 1u);  // Retransmitted to V.
}

TEST_F(ClientTest, ExponentialBackoffBetweenRetries) {
  primary_.respond = false;
  verifier_.respond = false;
  client_->Start();
  sim_.RunUntil(Seconds(2));
  // Timeout 100ms, then 200, 400, 800, 1600: ~5 retries in 2s (not 20).
  EXPECT_GE(client_->retransmissions(), 3u);
  EXPECT_LE(client_->retransmissions(), 6u);
}

TEST_F(ClientTest, VerifierResponseCompletesRequest) {
  primary_.respond = false;
  verifier_.respond = true;  // V re-answers (Fig. 4 case i).
  client_->Start();
  sim_.RunUntil(Millis(400));
  EXPECT_GT(client_->completed(), 0u);
}

TEST_F(ClientTest, AbortsCountedSeparately) {
  primary_.abort_next = true;
  client_->Start();
  sim_.RunUntil(Millis(50));
  EXPECT_GT(client_->aborted(), 0u);
  EXPECT_EQ(client_->completed(), 0u);
}

TEST_F(ClientTest, LatencyRecordedOnlyWhenEnabled) {
  client_->Start();
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(latency_.count(), 0u);  // Recording off by default (warmup).
  client_->SetRecording(true);
  sim_.RunUntil(Millis(40));
  EXPECT_GT(latency_.count(), 0u);
}

TEST_F(ClientTest, StaleResponsesIgnored) {
  // Hold the client on one unanswered request, so nothing but the
  // injected RESPONSE can move its counters.
  primary_.respond = false;
  verifier_.respond = false;
  client_->Start();
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(client_->inflight(), 1u);
  // A response for an id the client never issued.
  auto resp = std::make_shared<shim::ResponseMsg>(20);
  resp->txn_id = 999999;
  resp->client = 100;
  net_.Send(20, 100, resp, resp->WireSize());
  sim_.RunUntil(Millis(20));
  EXPECT_EQ(client_->completed(), 0u);
  EXPECT_EQ(client_->aborted(), 0u);
  EXPECT_EQ(client_->inflight(), 1u);
}

TEST_F(ClientTest, PrimaryResolverFollowsViewChanges) {
  ScriptedServer new_primary(11, &sim_, &net_);
  keys_.RegisterNode(11);
  net_.Register(&new_primary, 0);
  client_->Start();
  sim_.RunUntil(Millis(10));
  size_t old_count = primary_.requests.size();
  primary_id_ = 11;  // "View change": resolver now points at node 11.
  sim_.RunUntil(Millis(50));
  EXPECT_GT(new_primary.requests.size(), 0u);
  EXPECT_LE(primary_.requests.size(), old_count + 1);
}

TEST_F(ClientTest, PauseStopsTheClosedLoop) {
  client_->Start();
  sim_.RunUntil(Millis(10));
  client_->Pause();
  // The request in flight at the pause is still answered; no new one
  // follows it.
  sim_.RunUntil(Millis(30));
  const uint64_t settled = client_->completed();
  EXPECT_GT(settled, 0u);
  EXPECT_EQ(client_->inflight(), 0u);
  EXPECT_EQ(client_->offered(), settled);
  EXPECT_EQ(primary_.requests.size(), settled);
  sim_.RunUntil(Millis(100));
  EXPECT_EQ(client_->completed(), settled);
  EXPECT_EQ(primary_.requests.size(), settled);
}

}  // namespace
}  // namespace sbft::core
