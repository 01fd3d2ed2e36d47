#ifndef SBFT_FAULTS_SCHEDULE_H_
#define SBFT_FAULTS_SCHEDULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "faults/fault_event.h"

namespace sbft::faults {

/// \brief An ordered list of timed fault events — the deterministic
/// "chaos script" one run replays.
///
/// Schedules are usually written in the declarative scenario format (one
/// event per line) and parsed with Parse(); tests can also build them
/// programmatically with Add(). Events are kept sorted by time, ties in
/// insertion order, so installing a schedule is a pure function of its
/// text — a prerequisite for replayable runs.
///
/// Scenario line format (`#` starts a comment, blank lines are skipped):
///
///   at <time> crash node <i>
///   at <time> recover node <i>
///   at <time> crash coordinator
///   at <time> recover coordinator
///   at <time> partition nodes <i...> | <j...>
///   at <time> heal nodes
///   at <time> partition regions <a> <b>
///   at <time> heal regions <a> <b>
///   at <time> link <i> <j> [drop <p>] [dup <p>] [delay <dur>]
///   at <time> clear link <i> <j>
///   at <time> skew node <i> <dur>
///   at <time> byzantine node <i> <flag>[,<flag>...]
///   at <time> honest node <i>
///   at <time> kill executors
///   at <time> suspend spawns
///   at <time> resume spawns
///   at <time> straggle executors <dur>
///
/// Node indexes are global and shard-major: with S shard planes of n
/// nodes each, index s*n+i names node i of shard s. The coordinator
/// verbs require a sharded (shard_count > 1) architecture; `crash
/// coordinator` and `recover coordinator` name member 0.
///
/// Durations accept ns/us/ms/s suffixes ("250us", "1.5s"). Byzantine
/// flags: equivocate, suppress-requests, dark=<actorid,...>,
/// spawn-delay=<dur>, spawn-count=<n>, duplicate-spawns=<n>. An attack
/// that starts with the run is an `at 0ms` line installed before Start().
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Parses the declarative scenario format described above. Returns
  /// InvalidArgument naming the offending line on any syntax error.
  static Result<FaultSchedule> Parse(std::string_view text);

  /// Appends one event (kept sorted by time, stable for ties).
  void Add(FaultEvent event);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

/// Parses a duration literal like "250us", "1.5s", "800ms", "100ns".
Result<SimDuration> ParseDurationLiteral(std::string_view token);

}  // namespace sbft::faults

#endif  // SBFT_FAULTS_SCHEDULE_H_
