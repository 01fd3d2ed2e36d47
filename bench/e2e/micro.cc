// Micro-timings of the public functions the per-message path leans on.
// Each figure is the median of three samples of at least 0.3 s; inputs
// come from run-time values and every result feeds a sink the optimiser
// must keep.

#include <algorithm>
#include <memory>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "runner.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace e2e {

namespace {

template <typename T>
void KeepLive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Nanoseconds per operation; `batch` performs `per_batch` operations.
template <typename F>
double NsPerOp(F&& batch, double per_batch) {
  std::vector<double> samples;
  for (int s = 0; s < 3; ++s) {
    const double t0 = WallNow();
    double elapsed = 0;
    uint64_t batches = 0;
    do {
      batch();
      ++batches;
      elapsed = WallNow() - t0;
    } while (elapsed < 0.3);
    samples.push_back(elapsed * 1e9 /
                      (static_cast<double>(batches) * per_batch));
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

class Sink : public sbft::sim::Actor {
 public:
  explicit Sink(sbft::ActorId id) : Actor(id, "sink") {}
  void OnMessage(const sbft::sim::Envelope&) override { ++received; }
  uint64_t received = 0;
};

double ScheduleStepNs(uint64_t seed) {
  // A standing population of 1024 events keeps the heap realistic.
  sbft::sim::Simulator sim(seed);
  sbft::Rng rng = sim.rng()->Fork(1);
  uint64_t fired = 0;
  for (int i = 0; i < 1024; ++i) {
    sim.Schedule(1 + static_cast<int64_t>(rng.Uniform(1000)),
                 [&fired]() { ++fired; });
  }
  const double ns = NsPerOp(
      [&]() {
        for (int i = 0; i < 1024; ++i) {
          sim.Schedule(1 + static_cast<int64_t>(rng.Uniform(1000)),
                       [&fired]() { ++fired; });
          sim.Step();
        }
      },
      1024);
  KeepLive(fired);
  return ns;
}

double BroadcastNsPerDelivery(uint64_t seed) {
  constexpr int kSinks = 64;
  sbft::sim::Simulator sim(seed);
  sbft::sim::Network net(&sim, sbft::sim::RegionTable::Aws11(),
                         sbft::sim::NetworkConfig{});
  Sink sender(1000);
  net.Register(&sender, sbft::sim::RegionTable::kHomeRegion);
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<sbft::ActorId> targets;
  for (int i = 0; i < kSinks; ++i) {
    sinks.push_back(std::make_unique<Sink>(1 + i));
    net.Register(sinks.back().get(), sbft::sim::RegionTable::kHomeRegion);
    targets.push_back(1 + i);
  }
  auto msg = std::make_shared<sbft::shim::ResponseMsg>(sender.id());
  msg->txn_id = seed;
  const size_t bytes = msg->WireSize();
  const double ns = NsPerOp(
      [&]() {
        net.Broadcast(sender.id(), targets, msg, bytes);
        while (sim.Step()) {
        }
      },
      kSinks);
  uint64_t received = 0;
  for (const auto& s : sinks) received += s->received;
  KeepLive(received);
  return ns;
}

double HmacNs(uint64_t seed) {
  sbft::Bytes key(32), message(256);
  for (size_t i = 0; i < key.size(); ++i) key[i] = uint8_t(seed + i);
  for (size_t i = 0; i < message.size(); ++i) message[i] = uint8_t(seed * i);
  return NsPerOp(
      [&]() {
        for (int i = 0; i < 64; ++i) {
          const sbft::crypto::Digest d = sbft::crypto::HmacSha256(key, message);
          message[0] ^= d.data()[0];  // Chains iterations together.
        }
        KeepLive(message[0]);
      },
      64);
}

double Sha256Mbps(uint64_t seed) {
  std::vector<uint8_t> data(64 * 1024);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(seed ^ i);
  const double ns = NsPerOp(
      [&]() {
        const sbft::crypto::Digest d =
            sbft::crypto::Sha256::Hash(data.data(), data.size());
        data[0] ^= d.data()[0];
        KeepLive(data[0]);
      },
      1);
  return static_cast<double>(data.size()) / ns * 1e3;  // bytes/ns -> MB/s
}

}  // namespace

std::map<std::string, double> RunMicro(uint64_t seed) {
  return {
      {"sim.schedule_step_ns", ScheduleStepNs(seed)},
      {"sim.broadcast_ns_per_delivery", BroadcastNsPerDelivery(seed)},
      {"crypto.hmac_ns", HmacNs(seed)},
      {"crypto.sha256_mbps", Sha256Mbps(seed)},
  };
}

}  // namespace e2e
