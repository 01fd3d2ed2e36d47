// Gid-partitioned coordinator groups (DESIGN.md §12): the global-txn-id
// space is hashed across G independent R-member groups so every member
// serves 2PC traffic in parallel. These tests pin the properties the
// partitioning depends on: routing is a stable pure function of the
// gid, every layer resolves leaders with the same arithmetic, one
// group's failover never perturbs the others, and decisions (including
// presumed aborts) never leak across group boundaries.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>

#include "core/serverless_bft.h"
#include "crypto/certificate.h"
#include "shim/message.h"

#include "twopc_evidence.h"

namespace sbft::core {
namespace {

SystemConfig GroupedConfig(uint64_t seed, uint32_t groups,
                           uint32_t replicas) {
  SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 24;
  config.workload.record_count = 2000;
  config.workload.cross_shard_percentage = 30.0;
  config.coordinator_vote_timeout = Millis(600);
  config.coordinator_groups = groups;
  config.coordinator_replicas = replicas;
  config.coordinator_heartbeat = Millis(100);
  config.coordinator_failover_timeout = Millis(400);
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = seed;
  return config;
}

/// The serving member of one group right now: synced leader first, else
/// any live member, else the group's member 0.
TxnCoordinator* ServingMember(Architecture& arch, uint32_t group) {
  for (uint32_t r = 0; r < arch.coord_topology().replicas; ++r) {
    TxnCoordinator* c = arch.coordinator_member(group, r);
    if (!c->crashed() && c->leader_synced()) return c;
  }
  for (uint32_t r = 0; r < arch.coord_topology().replicas; ++r) {
    TxnCoordinator* c = arch.coordinator_member(group, r);
    if (!c->crashed()) return c;
  }
  return arch.coordinator_member(group, 0);
}

// Routing is a stable pure function of (gid, G): the same gid resolves
// to the same group on every call, sequential gids spread near-evenly
// (the splitmix64 finalizer breaks up the clients' sequential id
// allocation), and the resolution is independent of views, leaders, or
// any other runtime state — it takes none of them as input, and the
// member-id arithmetic round-trips across the whole topology.
TEST(CoordGroupTest, GidRoutingStableSpreadAndViewIndependent) {
  constexpr uint32_t kGroups = 4;
  constexpr ActorId kClient = 7;
  std::array<uint64_t, kGroups> counts{};
  for (TxnId id = 1; id <= 20000; ++id) {
    const TxnKey gid{kClient, id};
    uint32_t owner = CoordGroups::GroupOf(gid, kGroups);
    ASSERT_LT(owner, kGroups);
    // Stable: re-resolving yields the same owner.
    EXPECT_EQ(owner, CoordGroups::GroupOf(gid, kGroups));
    ++counts[owner];
  }
  // Near-even spread: each group gets 20-30% of 20k sequential gids
  // (a perfectly even split is 25%).
  for (uint32_t g = 0; g < kGroups; ++g) {
    EXPECT_GT(counts[g], 4000u) << "group " << g << " starved";
    EXPECT_LT(counts[g], 6000u) << "group " << g << " overloaded";
  }
  // Consecutive gids do not all land on the same group (the modulo
  // alone would stripe them; the finalizer scatters them).
  std::set<uint32_t> first_eight;
  for (TxnId id = 1; id <= 8; ++id) {
    first_eight.insert(CoordGroups::GroupOf({kClient, id}, kGroups));
  }
  EXPECT_GE(first_eight.size(), 2u);
  // The client is part of the gid: one id under different clients does
  // not all land on one group.
  std::set<uint32_t> one_id;
  for (ActorId client = 1; client <= 8; ++client) {
    one_id.insert(CoordGroups::GroupOf({client, 42}, kGroups));
  }
  EXPECT_GE(one_id.size(), 2u);

  // G == 1 degenerates to the singleton owner.
  EXPECT_EQ(CoordGroups::GroupOf({kClient, 12345}, 1), 0u);

  // Member-id arithmetic round-trips group-major.
  CoordGroups topo{4, 3};
  EXPECT_EQ(topo.total(), 12u);
  for (uint32_t g = 0; g < topo.groups; ++g) {
    for (uint32_t r = 0; r < topo.replicas; ++r) {
      ActorId id = topo.MemberId(g, r);
      EXPECT_TRUE(topo.IsMember(id));
      EXPECT_EQ(topo.GroupOfMember(id), g);
      EXPECT_EQ(topo.IndexOfMember(id), r);
    }
  }
  EXPECT_FALSE(topo.IsMember(kCoordinatorBaseId + topo.total()));
  EXPECT_EQ(topo.MemberId(0, 0), kCoordinatorBaseId);
}

// Satellite: every layer that resolves "who leads group g at view v"
// goes through CoordGroups::LeaderIndexAt. Assert the coordinator's own
// GroupLeader(), the topology's LeaderAt(), and the architecture's
// live-routing CurrentCoordinatorId() agree — before a failover (view
// 0) and after one (view >= 1), where a drifted copy of the arithmetic
// would silently route votes to a non-leader.
TEST(CoordGroupTest, LeaderArithmeticConsistentAcrossLayers) {
  SystemConfig config = GroupedConfig(42, 2, 3);
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(1));

  const CoordGroups& topo = arch.coord_topology();
  for (uint32_t g = 0; g < topo.groups; ++g) {
    for (uint32_t r = 0; r < topo.replicas; ++r) {
      TxnCoordinator* m = arch.coordinator_member(g, r);
      EXPECT_EQ(m->GroupLeader(), topo.LeaderAt(g, m->view()))
          << "member (" << g << ", " << r << ") disagrees on its leader";
    }
    EXPECT_EQ(arch.CurrentCoordinatorId(g),
              topo.LeaderAt(g, ServingMember(arch, g)->view()))
        << "router disagrees with group " << g << "'s leader rule";
  }

  // Crash group 1's view-0 leader; after failover the successor's view
  // moved, and every layer still resolves the same (new) leader.
  arch.coordinator_member(1, 0)->SetCrashed(true);
  arch.simulator()->RunUntil(Seconds(3));

  TxnCoordinator* serving = ServingMember(arch, 1);
  ASSERT_NE(serving, arch.coordinator_member(1, 0));
  EXPECT_GE(serving->view(), 1u);
  EXPECT_EQ(serving->GroupLeader(), topo.LeaderAt(1, serving->view()));
  EXPECT_EQ(arch.CurrentCoordinatorId(1),
            topo.LeaderAt(1, serving->view()));
  // Group 0 still resolves through the same rule at its original view.
  EXPECT_EQ(arch.CurrentCoordinatorId(0),
            topo.LeaderAt(0, ServingMember(arch, 0)->view()));
}

// Tentpole acceptance: failover is group-local. Crash group 2's leader
// mid-run under steady cross-shard traffic — groups 0/1/3 never see a
// view change and keep deciding throughout, group 2 recovers via its
// own takeover, and cross-shard atomicity holds for every gid.
TEST(CoordGroupTest, PerGroupFailoverIsolation) {
  SystemConfig config = GroupedConfig(23, 4, 3);
  Architecture arch(config);
  LogTrail trail(arch);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(1));

  const std::vector<uint64_t> before = arch.CoordinatorGroupDecisions();
  ASSERT_EQ(before.size(), 4u);

  // View 0: group 2's leader is its member 0.
  ASSERT_EQ(arch.CurrentCoordinatorId(2), arch.coord_topology().MemberId(2, 0));
  arch.coordinator_member(2, 0)->SetCrashed(true);
  arch.simulator()->RunUntil(Seconds(4));

  const std::vector<uint64_t> after = arch.CoordinatorGroupDecisions();

  // The untouched groups never changed view and kept serving.
  for (uint32_t g : {0u, 1u, 3u}) {
    for (uint32_t r = 0; r < 3; ++r) {
      EXPECT_EQ(arch.coordinator_member(g, r)->view_changes(), 0u)
          << "group " << g << " member " << r
          << " view-changed during another group's failover";
    }
    EXPECT_GT(after[g], before[g])
        << "group " << g << " stopped deciding during group 2's failover";
  }

  // Group 2 failed over within itself and resumed serving.
  TxnCoordinator* serving = ServingMember(arch, 2);
  EXPECT_NE(serving, arch.coordinator_member(2, 0));
  EXPECT_TRUE(serving->leader_synced());
  EXPECT_GE(serving->view(), 1u);
  EXPECT_GT(after[2], before[2]) << "group 2 never recovered";

  // Atomicity across the partitioned groups: no gid applied on one
  // shard and aborted on another, and every applied gid is COMMIT-
  // logged on a member of its owner group.
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    const verifier::Verifier* v = arch.plane(s)->verifier();
    EXPECT_TRUE(v->audit_log().VerifyChain());
    EXPECT_TRUE(v->decision_log().VerifyChain());
  }
  const TwoPcEvidence evidence = CollectTwoPcEvidence(arch, trail);
  EXPECT_TRUE(evidence.SplitOutcomes().empty());
  for (const TxnKey& gid : evidence.applied_gids) {
    uint32_t owner = arch.coord_topology().GroupOf(gid);
    bool commit_logged = false;
    for (uint32_t r = 0; r < 3; ++r) {
      const LogTrail::CoordOutcome* logged =
          trail.CoordinatorOutcome(owner * 3 + r, gid);
      if (logged != nullptr && logged->commit) commit_logged = true;
    }
    EXPECT_TRUE(commit_logged)
        << "applied gid " << gid << " not COMMIT-logged in owner group "
        << owner;
  }
}

// Decisions are group-local: every decision (commit, abort, or
// presumed abort) in a member's log belongs to the gid space its group
// owns, and a vote misrouted to the wrong group is dropped on arrival —
// it must never start a vote round there, because the wrong group's
// vote timeout would presumed-abort a transaction it does not own.
TEST(CoordGroupTest, DecisionsStayGroupLocalAndForeignVotesDropped) {
  SystemConfig config = GroupedConfig(7, 4, 1);
  Architecture arch(config);
  arch.Start();
  arch.simulator()->RunUntil(Seconds(3));

  const CoordGroups& topo = arch.coord_topology();
  uint64_t total_decisions = 0;
  for (uint32_t g = 0; g < topo.groups; ++g) {
    const TxnCoordinator* m = arch.coordinator_member(g, 0);
    for (const auto& [gid, rec] : m->decisions()) {
      EXPECT_EQ(topo.GroupOf(gid), g)
          << "gid " << gid << " decided by group " << g
          << " which does not own it";
    }
    total_decisions += m->decisions().size();
  }
  EXPECT_GT(total_decisions, 50u) << "not enough cross-shard traffic";

  // Inject a vote for a gid owned by some other group directly at
  // group 0 (spoofed from shard 0's verifier). Group 0 must drop it
  // without creating any state: no decision, no presumed abort.
  TxnKey foreign_gid;
  for (TxnId id = 1u << 20; id < (1u << 20) + 64; ++id) {
    const TxnKey gid{Architecture::kFirstClientId, id};
    if (topo.GroupOf(gid) != 0 &&
        !arch.coordinator_member(topo.GroupOf(gid), 0)
             ->decisions()
             .contains(gid)) {
      foreign_gid = gid;
      break;
    }
  }
  ASSERT_NE(foreign_gid.id, 0u);

  TxnCoordinator* group0 = arch.coordinator_member(0, 0);
  const uint64_t dropped_before = group0->foreign_votes_dropped();
  const uint64_t presumed_before = group0->presumed_aborts_logged();
  auto vote =
      std::make_shared<shim::ShardVoteCertMsg>(ShardPlane::VerifierId(0));
  crypto::VoteShare share;
  share.global_id = foreign_gid.id;
  share.client = foreign_gid.client;
  share.shard = 0;
  share.seq = 1;
  share.commit = true;
  share.signer = ShardPlane::VerifierId(0);
  share.sig = arch.keys()->Sign(
      ShardPlane::VerifierId(0),
      crypto::VoteSigningBytes(foreign_gid, 0, 1, true));
  vote->cert.shares.push_back(share);
  arch.network()->Send(ShardPlane::VerifierId(0), group0->id(), vote,
                       vote->WireSize());
  arch.simulator()->RunUntil(Seconds(4));

  EXPECT_EQ(group0->foreign_votes_dropped(), dropped_before + 1);
  EXPECT_EQ(group0->presumed_aborts_logged(), presumed_before)
      << "foreign vote presumed-aborted in the wrong group";
  EXPECT_FALSE(group0->decisions().contains(foreign_gid));
  // The owner group got exactly one (half-voted) transaction at most —
  // and since only one shard "voted", its timeout path may abort it
  // there; what matters is the wrong group never decided it.
  for (uint32_t g = 1; g < topo.groups; ++g) {
    if (g == topo.GroupOf(foreign_gid)) continue;
    EXPECT_FALSE(
        arch.coordinator_member(g, 0)->decisions().contains(foreign_gid));
  }
}

}  // namespace
}  // namespace sbft::core
