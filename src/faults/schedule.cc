#include "faults/schedule.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace sbft::faults {

namespace {

/// Splits a line into whitespace-separated tokens, dropping `#` comments.
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

Status LineError(size_t line_no, std::string_view what) {
  std::ostringstream os;
  os << "scenario line " << line_no << ": " << what;
  return Status::InvalidArgument(os.str());
}

bool ParseUint(const std::string& token, uint32_t* out) {
  // strtoul would silently wrap "-1" to a huge value; demand digits.
  if (token.empty() ||
      std::isdigit(static_cast<unsigned char>(token[0])) == 0) {
    return false;
  }
  char* end = nullptr;
  unsigned long value = std::strtoul(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value > 0xfffffffful) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

bool ParseInt(const std::string& token, int* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseProbability(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  if (value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

/// Parses a partition's two sides, `<i...> | <j...>`, from `tok[first..]`
/// into `event`'s groups. `what` is the partitioned kind ("nodes") and
/// `index` names one of them ("node") in the error, which is empty on
/// success.
std::string ParsePartitionSides(const std::vector<std::string>& tok,
                                size_t first, std::string_view what,
                                std::string_view index, FaultEvent* event) {
  bool after_bar = false;
  for (size_t i = first; i < tok.size(); ++i) {
    if (tok[i] == "|") {
      after_bar = true;
      continue;
    }
    uint32_t member = 0;
    if (!ParseUint(tok[i], &member)) {
      return "bad " + std::string(index) + " index in partition";
    }
    (after_bar ? event->group_b : event->group_a).push_back(member);
  }
  if (event->group_a.empty() || event->group_b.empty()) {
    return "partition " + std::string(what) + " needs '<i...> | <j...>'";
  }
  return "";
}

/// Parses one byzantine flag ("equivocate", "spawn-delay=120ms", ...)
/// into `behavior`. Returns false on an unknown flag or bad payload.
bool ApplyByzantineFlag(const std::string& flag,
                        shim::ByzantineBehavior* behavior) {
  behavior->byzantine = true;
  std::string key = flag;
  std::string value;
  size_t eq = flag.find('=');
  if (eq != std::string::npos) {
    key = flag.substr(0, eq);
    value = flag.substr(eq + 1);
  }
  if (key == "equivocate") {
    behavior->equivocate = true;
    return value.empty();
  }
  if (key == "suppress-requests") {
    behavior->suppress_requests = true;
    return value.empty();
  }
  if (key == "dark") {
    std::stringstream ss(value);
    std::string id;
    while (std::getline(ss, id, ',')) {
      uint32_t actor = 0;
      if (!ParseUint(id, &actor)) return false;
      behavior->dark_nodes.push_back(actor);
    }
    return !behavior->dark_nodes.empty();
  }
  if (key == "spawn-delay") {
    auto delay = ParseDurationLiteral(value);
    if (!delay.ok()) return false;
    behavior->spawn_delay = *delay;
    return true;
  }
  if (key == "spawn-count") {
    int count = 0;
    if (!ParseInt(value, &count) || count < 0) return false;
    behavior->spawn_count_override = count;
    return true;
  }
  if (key == "duplicate-spawns") {
    int count = 0;
    if (!ParseInt(value, &count) || count < 0) return false;
    behavior->duplicate_spawns = count;
    return true;
  }
  return false;
}

}  // namespace

Result<SimDuration> ParseDurationLiteral(std::string_view token) {
  if (token.empty()) {
    return Status::InvalidArgument("empty duration");
  }
  size_t unit_start = token.size();
  while (unit_start > 0 &&
         !(std::isdigit(static_cast<unsigned char>(token[unit_start - 1])) !=
               0 ||
           token[unit_start - 1] == '.')) {
    --unit_start;
  }
  std::string number(token.substr(0, unit_start));
  std::string unit(token.substr(unit_start));
  char* end = nullptr;
  double value = std::strtod(number.c_str(), &end);
  if (number.empty() || end == nullptr || *end != '\0' || value < 0) {
    return Status::InvalidArgument("bad duration: " + std::string(token));
  }
  double scale;
  if (unit == "ns") {
    scale = static_cast<double>(kNanosecond);
  } else if (unit == "us") {
    scale = static_cast<double>(kMicrosecond);
  } else if (unit == "ms") {
    scale = static_cast<double>(kMillisecond);
  } else if (unit == "s") {
    scale = static_cast<double>(kSecond);
  } else {
    return Status::InvalidArgument("bad duration unit: " +
                                   std::string(token));
  }
  // 2^63 ns (~292 years) is the first value a SimDuration cannot hold;
  // the cast of anything at or past it, or of inf, is undefined.
  double ns = value * scale;
  if (!std::isfinite(ns) || ns >= 0x1p63) {
    return Status::InvalidArgument("duration out of range: " +
                                   std::string(token));
  }
  return static_cast<SimDuration>(ns);
}

void FaultSchedule::Add(FaultEvent event) {
  // Insert keeping time order, stable among equal times: a schedule's
  // semantics must not depend on the order Add was called for distinct
  // times, and must preserve it for equal times.
  auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(pos, std::move(event));
}

Result<FaultSchedule> FaultSchedule::Parse(std::string_view text) {
  FaultSchedule schedule;
  std::stringstream lines{std::string(text)};
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    std::vector<std::string> tok = Tokenize(line);
    if (tok.empty()) continue;
    if (tok[0] != "at" || tok.size() < 3) {
      return LineError(line_no, "expected 'at <time> <action> ...'");
    }
    auto when = ParseDurationLiteral(tok[1]);
    if (!when.ok()) return LineError(line_no, when.status().message());

    FaultEvent event;
    event.at = *when;
    const std::string& action = tok[2];
    auto arg = [&](size_t i) -> const std::string& {
      static const std::string empty;
      return 3 + i < tok.size() ? tok[3 + i] : empty;
    };
    size_t args = tok.size() - 3;

    if (action == "crash" && arg(0) == "node" && args == 2) {
      event.kind = FaultKind::kCrashReplica;
      if (!ParseUint(arg(1), &event.node)) {
        return LineError(line_no, "bad node index");
      }
    } else if (action == "recover" && arg(0) == "node" && args == 2) {
      event.kind = FaultKind::kRecoverReplica;
      if (!ParseUint(arg(1), &event.node)) {
        return LineError(line_no, "bad node index");
      }
    } else if (action == "crash" && arg(0) == "coordinator" && args == 1) {
      event.kind = FaultKind::kCrashCoordinatorMember;  // Member 0.
    } else if (action == "recover" && arg(0) == "coordinator" &&
               args == 1) {
      event.kind = FaultKind::kRecoverCoordinatorMember;
    } else if (action == "crash" && arg(0) == "coordinator" && args == 2 &&
               arg(1) == "leader") {
      event.kind = FaultKind::kCrashCoordinatorLeader;
    } else if (action == "crash" && arg(0) == "coordinator" && args == 2) {
      event.kind = FaultKind::kCrashCoordinatorMember;
      if (!ParseUint(arg(1), &event.node)) {
        return LineError(line_no, "bad coordinator member index");
      }
    } else if (action == "recover" && arg(0) == "coordinator" &&
               args == 2) {
      event.kind = FaultKind::kRecoverCoordinatorMember;
      if (!ParseUint(arg(1), &event.node)) {
        return LineError(line_no, "bad coordinator member index");
      }
    } else if (action == "partition" &&
               (arg(0) == "nodes" || arg(0) == "coordinators")) {
      const bool nodes = arg(0) == "nodes";
      event.kind = nodes ? FaultKind::kPartitionNodes
                         : FaultKind::kPartitionCoordinators;
      std::string error = ParsePartitionSides(
          tok, /*first=*/4, arg(0), nodes ? "node" : "member", &event);
      if (!error.empty()) return LineError(line_no, error);
    } else if (action == "heal" && arg(0) == "coordinators" && args == 1) {
      event.kind = FaultKind::kHealCoordinators;
    } else if (action == "heal" && arg(0) == "nodes" && args == 1) {
      event.kind = FaultKind::kHealNodes;
    } else if (action == "partition" && arg(0) == "regions" && args == 3) {
      event.kind = FaultKind::kPartitionRegions;
      if (!ParseUint(arg(1), &event.region_a) ||
          !ParseUint(arg(2), &event.region_b)) {
        return LineError(line_no, "bad region id");
      }
    } else if (action == "heal" && arg(0) == "regions" && args == 3) {
      event.kind = FaultKind::kHealRegions;
      if (!ParseUint(arg(1), &event.region_a) ||
          !ParseUint(arg(2), &event.region_b)) {
        return LineError(line_no, "bad region id");
      }
    } else if (action == "link" && args >= 2) {
      event.kind = FaultKind::kLinkRule;
      if (!ParseUint(arg(0), &event.node) ||
          !ParseUint(arg(1), &event.node_b)) {
        return LineError(line_no, "bad link endpoints");
      }
      for (size_t i = 2; i < args; i += 2) {
        if (i + 1 >= args) {
          return LineError(line_no, "link option missing value");
        }
        if (arg(i) == "drop") {
          if (!ParseProbability(arg(i + 1), &event.rule.drop_probability)) {
            return LineError(line_no, "bad drop probability");
          }
        } else if (arg(i) == "dup") {
          if (!ParseProbability(arg(i + 1),
                                &event.rule.duplicate_probability)) {
            return LineError(line_no, "bad dup probability");
          }
        } else if (arg(i) == "delay") {
          auto delay = ParseDurationLiteral(arg(i + 1));
          if (!delay.ok()) return LineError(line_no, "bad link delay");
          event.rule.extra_delay = *delay;
        } else {
          return LineError(line_no, "unknown link option: " + arg(i));
        }
      }
    } else if (action == "clear" && arg(0) == "link" && args == 3) {
      event.kind = FaultKind::kClearLinkRule;
      if (!ParseUint(arg(1), &event.node) ||
          !ParseUint(arg(2), &event.node_b)) {
        return LineError(line_no, "bad link endpoints");
      }
    } else if (action == "skew" && arg(0) == "node" && args == 3) {
      event.kind = FaultKind::kClockSkew;
      if (!ParseUint(arg(1), &event.node)) {
        return LineError(line_no, "bad node index");
      }
      auto delay = ParseDurationLiteral(arg(2));
      if (!delay.ok()) return LineError(line_no, "bad skew duration");
      event.delay = *delay;
    } else if (action == "byzantine" && arg(0) == "node" && args == 3) {
      event.kind = FaultKind::kSetByzantine;
      if (!ParseUint(arg(1), &event.node)) {
        return LineError(line_no, "bad node index");
      }
      std::stringstream flags(arg(2));
      std::string flag;
      while (std::getline(flags, flag, ',')) {
        if (!ApplyByzantineFlag(flag, &event.behavior)) {
          return LineError(line_no, "bad byzantine flag: " + flag);
        }
      }
      if (!event.behavior.byzantine) {
        return LineError(line_no, "byzantine needs at least one flag");
      }
    } else if (action == "honest" && arg(0) == "node" && args == 2) {
      event.kind = FaultKind::kClearByzantine;
      if (!ParseUint(arg(1), &event.node)) {
        return LineError(line_no, "bad node index");
      }
    } else if (action == "kill" && arg(0) == "executors" && args == 1) {
      event.kind = FaultKind::kKillExecutors;
    } else if (action == "suspend" && arg(0) == "spawns" && args == 1) {
      event.kind = FaultKind::kSuspendSpawns;
    } else if (action == "resume" && arg(0) == "spawns" && args == 1) {
      event.kind = FaultKind::kResumeSpawns;
    } else if (action == "straggle" && arg(0) == "executors" && args == 2) {
      event.kind = FaultKind::kStraggleExecutors;
      auto delay = ParseDurationLiteral(arg(1));
      if (!delay.ok()) return LineError(line_no, "bad straggle duration");
      event.delay = *delay;
    } else {
      return LineError(line_no, "unknown action: " + action);
    }
    schedule.Add(std::move(event));
  }
  return schedule;
}

}  // namespace sbft::faults
