// End-to-end drills for the attack catalogue of paper §V: request
// suppression, nodes in dark, verifier flooding, byzantine spawning.
//
// The adversities are injected through the fault engine (src/faults/): a
// declarative FaultSchedule applied by a FaultController, instead of the
// ad-hoc per-test wiring this file used to carry. Attacks that are
// properties of the *workload* rather than of a shim node (byzantine
// executors) still come from SystemConfig.

#include <gtest/gtest.h>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/schedule.h"
#include "storage/shard_router.h"
#include "workload/ycsb_key.h"

#include "log_trail.h"

namespace sbft::core {
namespace {

SystemConfig BaseConfig() {
  SystemConfig config;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 8;
  config.client_timeout = Millis(400);
  config.workload.record_count = 1000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 31;
  return config;
}

/// Parses `schedule_text` and installs it on the controller's
/// architecture; the controller must outlive the run.
void Install(faults::FaultController& controller, const char* schedule_text) {
  auto schedule = faults::FaultSchedule::Parse(schedule_text);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  Status installed = controller.Install(*schedule);
  ASSERT_TRUE(installed.ok()) << installed.ToString();
}

TEST(AttacksTest, RequestSuppressionRecoversViaViewChange) {
  // §V-A attack (i): byzantine primary drops every client request. The
  // client timer fires, the request goes to the verifier, the verifier
  // broadcasts ERROR, the Υ timers expire without an ACK, and the shim
  // replaces the primary.
  Architecture arch(BaseConfig());
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms byzantine node 0 suppress-requests\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));

  EXPECT_GT(arch.TotalViewChanges(), 0u);
  // After the view change node 1 is primary and requests flow again.
  EXPECT_GT(arch.TotalCompleted(), 0u);
  EXPECT_NE(arch.CurrentPrimary(), 1u);  // Node id 1 == index 0 demoted.
  EXPECT_GT(arch.TotalRetransmissions(), 0u);
}

TEST(AttacksTest, CrashedPrimaryRecovers) {
  Architecture arch(BaseConfig());
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms crash node 0\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));
  EXPECT_GT(arch.TotalViewChanges(), 0u);
  EXPECT_GT(arch.TotalCompleted(), 0u);
}

TEST(AttacksTest, MidRunPrimaryCrashRecoversAndNodeCatchesUp) {
  // Runtime crash-stop (only expressible through the fault engine): the
  // primary commits normally for a second, crash-stops, and restarts
  // later; the shim replaces it and the run keeps committing.
  Architecture arch(BaseConfig());
  faults::FaultController controller(&arch);
  Install(controller,
          "at 1s crash node 0\n"
          "at 4s recover node 0\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));
  uint64_t mid = arch.TotalCompleted();
  EXPECT_GT(arch.TotalViewChanges(), 0u);
  arch.simulator()->RunUntil(Seconds(6));
  EXPECT_GT(arch.TotalCompleted(), mid);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(AttacksTest, FewerExecutorsDetectedAndRespawned) {
  // §V-A attack (iii): the primary commits but spawns fewer than n_E
  // executors. With only 1 executor no f_E+1 match forms; the client
  // retransmits, the verifier broadcasts ERROR(kmax), the primary (here
  // byzantine) is eventually replaced and the respawn path re-covers.
  Architecture arch(BaseConfig());
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms byzantine node 0 spawn-count=1\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(8));
  EXPECT_GT(arch.TotalCompleted(), 0u);
  EXPECT_GT(arch.TotalRetransmissions(), 0u);
}

TEST(AttacksTest, NodesInDarkRecoverThroughCheckpoints) {
  // §V-B: the primary keeps one honest node in the dark; consensus
  // continues with the 2f+1 quorum, and featherweight checkpoints bring
  // the dark node back in sync. Undetectable => no view change expected.
  Architecture arch(BaseConfig());
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms byzantine node 0 dark=4\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(5));

  EXPECT_GT(arch.TotalCompleted(), 50u);
  const auto& dark = arch.pbft_replicas()[3];
  EXPECT_GT(dark->dark_recoveries(), 0u);
  // The dark node's stable sequence advanced via adopted certificates.
  EXPECT_GT(dark->stable_seq(), 0u);
}

TEST(AttacksTest, DelayedSpawningCausesAbortsNotUnsafety) {
  // §VI-B byzantine-abort attack: the primary delays spawning to get
  // conflicting transactions aborted. Safety holds (audit chain intact,
  // ordered), but aborts appear.
  SystemConfig config = BaseConfig();
  config.conflicts_possible = true;
  config.workload.rw_sets_known = false;
  config.workload.conflict_percentage = 30;
  config.n_e = 4;  // 3f_E + 1.
  config.verifier_match_timeout = Millis(250);
  Architecture arch(config);
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms byzantine node 0 spawn-delay=120ms\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));

  EXPECT_GT(arch.TotalCompleted(), 0u);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(AttacksTest, DuplicateSpawningIsAbsorbedAndSelfPenalizing) {
  // §V-C attack (i): the primary spawns duplicate executor sets. The
  // verifier ignores post-match VERIFYs; the duplicates only cost money.
  Architecture arch(BaseConfig());
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms byzantine node 0 duplicate-spawns=2\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(4));

  EXPECT_GT(arch.TotalCompleted(), 50u);
  EXPECT_GT(arch.verifier()->flooding_ignored(), 0u);
  // Monetary self-penalty: ~3x invocations for the same committed work.
  EXPECT_GT(arch.cloud()->cost_meter()->invocations(),
            2 * arch.spawner()->batches_spawned());
}

TEST(AttacksTest, FloodCountReportsTheMeasurementWindowOnly) {
  // A duplicate-VERIFY executor floods the verifier from the first
  // batch on. RunReport counts only the measurement window, like every
  // other report field — warmup floods must not leak into it.
  SystemConfig config = BaseConfig();
  config.byzantine_executors = 1;
  config.byzantine_executor_behavior =
      serverless::ExecutorBehavior::kDuplicateVerify;
  const SimDuration warmup = Seconds(1);
  const SimDuration measure = Seconds(1);
  RunReport report = RunExperiment(config, warmup, measure);

  // The same run by hand (a run is a pure function of config and seed).
  Architecture arch(config);
  arch.Start();
  arch.RunUntil(warmup);
  const uint64_t at_warmup = arch.verifier()->flooding_ignored();
  arch.SetRecording(true);
  arch.RunUntil(warmup + measure);
  const uint64_t at_end = arch.verifier()->flooding_ignored();

  EXPECT_GT(at_warmup, 0u);
  EXPECT_GT(at_end, at_warmup);
  EXPECT_EQ(report.verifier_floods_ignored, at_end - at_warmup);
}

/// Delivers a RESPONSE for every sequence in [1, last] to `node`, as if
/// `from` had sent it.
void DeliverResponses(shim::PbftReplica* node, ActorId from, SeqNum last) {
  for (SeqNum seq = 1; seq <= last; ++seq) {
    auto response = std::make_shared<shim::ResponseMsg>(from);
    response->seq = seq;
    sim::Envelope env;
    env.from = from;
    env.to = node->id();
    env.message = response;
    node->OnMessage(env);
  }
}

TEST(AttacksTest, ForgedResponseFromShimNodeIsIgnored) {
  // Only the plane's verifier settles sequences. A byzantine shim node
  // forging RESPONSEs to the primary must neither release §VI-C
  // conflict-avoidance locks nor advance the spawner's settle point,
  // which prunes the respawn cache.
  SystemConfig config = BaseConfig();
  config.conflict_avoidance = true;
  config.workload.rw_sets_known = true;
  Architecture arch(config);
  arch.Start();
  Spawner* spawner = arch.spawner();
  SimTime now = 0;
  while (spawner->locked_keys() == 0 && now < Seconds(3)) {
    now += Millis(1);
    arch.simulator()->RunUntil(now);
  }
  ASSERT_GT(spawner->locked_keys(), 0u);
  ASSERT_GT(spawner->respawn_cache_size(), 0u);
  const size_t locked = spawner->locked_keys();
  const size_t cached = spawner->respawn_cache_size();
  const SeqNum settled = spawner->settled_seq();
  const SeqNum last = settled + 1000;

  shim::PbftReplica* primary = arch.pbft_replicas()[0];
  ASSERT_TRUE(primary->IsPrimary());
  DeliverResponses(primary, arch.plane(0)->shim_ids()[1], last);
  EXPECT_EQ(spawner->locked_keys(), locked);
  EXPECT_EQ(spawner->respawn_cache_size(), cached);
  EXPECT_EQ(spawner->settled_seq(), settled);

  // The same messages from the verifier do take effect.
  DeliverResponses(primary, arch.plane(0)->verifier_id(), last);
  EXPECT_EQ(spawner->settled_seq(), last);
  EXPECT_EQ(spawner->respawn_cache_size(), 0u);
}

TEST(AttacksTest, ByzantineClientCannotSquatTxnIds) {
  // Clients draw their ids from one shared generator in sequence, so the
  // ids the others will use are predictable. A byzantine client signs
  // requests under the next 400 in its own name and delivers them to the
  // primary before anyone else. A TxnId names a transaction only with
  // its client, so the primary must not drop the honest requests under
  // those ids as duplicates, and the verifier must not answer an honest
  // retransmit from the squatter's outcome.
  Architecture arch(BaseConfig());
  const ActorId squatter = arch.sources()[0]->id();
  shim::PbftReplica* primary = arch.pbft_replicas()[0];
  ASSERT_TRUE(primary->IsPrimary());
  for (TxnId id = 1; id <= 400; ++id) {
    auto request = std::make_shared<shim::ClientRequestMsg>(squatter);
    request->txn.id = id;
    request->txn.client = squatter;
    request->txn.ops.push_back({workload::OpType::kRead, "user1", {}, 0});
    request->client_sig = arch.keys()->Sign(
        squatter, shim::ClientRequestMsg::SigningBytes(request->txn));
    sim::Envelope env;
    env.from = squatter;
    env.to = primary->id();
    env.message = request;
    primary->OnMessage(env);
  }
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));

  // Each honest client completes about 140 transactions in 6 s, with or
  // without the squatter.
  for (size_t i = 1; i < arch.sources().size(); ++i) {
    EXPECT_GT(arch.sources()[i]->completed(), 100u) << "client " << i;
  }
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(AttacksTest, ByzantineClientCannotSquatGids) {
  // The same squat against the cross-shard coordinator: the byzantine
  // client signs the next 400 ids as cross-shard transactions in its own
  // name and hands them to the coordinator before anyone else. A gid is
  // (client, id), so each decision answers only its own client: an
  // honest client may never be answered from the squatter's decision,
  // nor receive a COMMIT for a transaction that never ran.
  SystemConfig config = BaseConfig();
  config.shard_count = 2;
  config.workload.cross_shard_percentage = 100.0;
  Architecture arch(config);
  core::LogTrail trail(arch);
  const ActorId squatter = arch.sources()[0]->id();
  storage::ShardRouter router(2);
  std::string keys[2];
  for (uint64_t i = 0; keys[0].empty() || keys[1].empty(); ++i) {
    std::string key = workload::YcsbKey(i);
    keys[router.ShardOf(key)] = key;
  }
  core::TxnCoordinator* coordinator = arch.coordinator();
  for (TxnId id = 1; id <= 400; ++id) {
    auto request = std::make_shared<shim::ClientRequestMsg>(squatter);
    request->txn.id = id;
    request->txn.client = squatter;
    request->txn.floor = id - 1;
    for (const std::string& key : keys) {
      request->txn.ops.push_back({workload::OpType::kRead, key, {}, 0});
    }
    request->client_sig = arch.keys()->Sign(
        squatter, shim::ClientRequestMsg::SigningBytes(request->txn));
    sim::Envelope env;
    env.from = squatter;
    env.to = coordinator->id();
    env.message = request;
    coordinator->OnMessage(env);
  }
  // Every RESPONSE the coordinator sends an honest client, checked
  // against the decision the coordinator logged for that client's gid.
  std::vector<std::pair<TxnKey, bool>> answers;  // (gid, committed)
  arch.network()->SetDeliveryObserver([&](const sim::Envelope& env) {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    if (env.from != coordinator->id() || env.to == squatter ||
        msg->kind != shim::MsgKind::kResponse) {
      return;
    }
    const auto& response = static_cast<const shim::ResponseMsg&>(*msg);
    answers.push_back({{env.to, response.txn_id}, !response.aborted});
  });
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));

  ASSERT_GT(answers.size(), 100u);
  size_t foreign = 0;
  for (const auto& [gid, committed] : answers) {
    const core::LogTrail::CoordOutcome* logged =
        trail.CoordinatorOutcome(0, gid);
    if (logged == nullptr || logged->commit != committed) ++foreign;
  }
  EXPECT_EQ(foreign, 0u)
      << "honest clients answered from another client's decision";
  for (size_t i = 1; i < arch.sources().size(); ++i) {
    EXPECT_GT(arch.sources()[i]->completed(), 10u) << "client " << i;
  }
}

TEST(AttacksTest, LinearShimRecoversFromCrashedPrimary) {
  // The §IV-B linear shim must survive the same faults: a crashed
  // primary is replaced via the τ_m timers and the coordinated view
  // change, after which throughput resumes.
  SystemConfig config = BaseConfig();
  config.protocol = Protocol::kServerlessBftLinear;
  Architecture arch(config);
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms crash node 0\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));
  EXPECT_GT(arch.TotalViewChanges(), 0u);
  EXPECT_GT(arch.TotalCompleted(), 0u);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(AttacksTest, LinearShimToleratesByzantineExecutors) {
  SystemConfig config = BaseConfig();
  config.protocol = Protocol::kServerlessBftLinear;
  config.byzantine_executors = 1;
  config.byzantine_executor_behavior =
      serverless::ExecutorBehavior::kWrongResult;
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(4));
  EXPECT_GT(arch.TotalCompleted(), 50u);
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

TEST(AttacksTest, EquivocatingPrimaryNeverViolatesSafety) {
  SystemConfig config = BaseConfig();
  Architecture arch(config);
  faults::FaultController controller(&arch);
  Install(controller, "at 0ms byzantine node 0 equivocate\n");
  arch.Start();
  arch.simulator()->RunUntil(Seconds(6));

  // Cross-node agreement on every committed sequence (Shim
  // Non-Divergence, §IV-E).
  for (SeqNum seq = 1; seq <= 50; ++seq) {
    const crypto::Digest* first = nullptr;
    for (uint32_t i = 1; i < config.shim.n; ++i) {  // Honest nodes.
      auto digest = arch.pbft_replicas()[i]->CommittedDigest(seq);
      if (!digest.has_value()) continue;
      if (first == nullptr) {
        first = &*digest;
      } else {
        EXPECT_EQ(*first, *digest) << "divergence at seq " << seq;
      }
    }
  }
  EXPECT_TRUE(arch.verifier()->audit_log().VerifyChain());
}

}  // namespace
}  // namespace sbft::core
