#include "faults/runner.h"

#include <cstdio>

#include "core/architecture.h"
#include "crypto/sha256.h"
#include "faults/controller.h"

namespace sbft::faults {

std::string ScenarioReport::OneLine() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "completed=%-6llu aborted=%-4llu view-changes=%-3llu "
                "retrans=%-4llu replaces=%-3llu lat(p50=%.1fms p99=%.1fms) "
                "audit=%s digest=%.16s",
                static_cast<unsigned long long>(completed_txns),
                static_cast<unsigned long long>(aborted_txns),
                static_cast<unsigned long long>(view_changes),
                static_cast<unsigned long long>(client_retransmissions),
                static_cast<unsigned long long>(replace_broadcasts),
                latency_p50_ms, latency_p99_ms,
                audit_chain_ok ? "ok" : "BROKEN", commit_digest.c_str());
  return buf;
}

Result<ScenarioReport> RunScenario(const Scenario& scenario) {
  auto schedule = FaultSchedule::Parse(scenario.schedule_text);
  if (!schedule.ok()) return schedule.status();

  core::Architecture arch(scenario.config);
  FaultController controller(&arch);
  Status installed = controller.Install(*schedule);
  if (!installed.ok()) return installed;
  arch.SetRecording(true);
  arch.Start();
  arch.simulator()->RunUntil(scenario.duration);

  ScenarioReport report;
  report.scenario = scenario.name;
  report.seed = scenario.config.seed;
  if (arch.shard_count() == 1) {
    const storage::AuditLog& audit = arch.verifier()->audit_log();
    report.commit_digest = audit.head().ToHex();
    report.audit_chain_ok = audit.VerifyChain();
    report.audit_entries = audit.size();
  } else {
    // Sharded plane: the replay digest commits to every shard's batch
    // audit chain *and* its 2PC decision chain, in shard order.
    crypto::Sha256 combined;
    bool chains_ok = true;
    uint64_t entries = 0;
    for (uint32_t s = 0; s < arch.shard_count(); ++s) {
      const verifier::Verifier* v = arch.plane(s)->verifier();
      combined.Update(v->audit_log().head().data(), crypto::Digest::kSize);
      combined.Update(v->decision_log().head().data(),
                      crypto::Digest::kSize);
      chains_ok = chains_ok && v->audit_log().VerifyChain() &&
                  v->decision_log().VerifyChain();
      entries += v->audit_log().size() + v->decision_log().size();
    }
    report.commit_digest = combined.Finish().ToHex();
    report.audit_chain_ok = chains_ok;
    report.audit_entries = entries;
  }
  report.completed_txns = arch.TotalCompleted();
  report.aborted_txns = arch.TotalAborted();
  report.view_changes = arch.TotalViewChanges();
  report.client_retransmissions = arch.TotalRetransmissions();
  report.executors_spawned = 0;
  report.executors_killed = 0;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    core::ShardPlane* plane = arch.plane(s);
    report.executors_spawned += plane->spawner()->executors_spawned();
    report.executors_killed += plane->cloud()->executors_killed();
    report.replace_broadcasts += plane->verifier()->replace_broadcasts();
  }
  report.messages_dropped = arch.network()->messages_dropped();
  report.fault_events_applied = controller.events_applied();
  const Histogram latency = arch.MergedLatency();
  report.latency_p50_ms =
      static_cast<double>(latency.p50()) / static_cast<double>(kMillisecond);
  report.latency_p99_ms =
      static_cast<double>(latency.p99()) / static_cast<double>(kMillisecond);
  return report;
}

}  // namespace sbft::faults
