#ifndef SBFT_CRYPTO_KEYS_H_
#define SBFT_CRYPTO_KEYS_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/bytes.h"
#include "common/ids.h"

namespace sbft::crypto {

/// Selects how expensive the signatures are to *compute*. Simulated
/// protocol time is governed by the cost model either way (see
/// core/config.h): it charges the paper's DS and MAC costs, and no run
/// computes a MAC.
enum class CryptoMode {
  /// HMAC-based stand-ins for signatures (real HMAC-SHA256, keyed on
  /// per-node secrets held by this registry). Byzantine actors in the
  /// simulation cannot forge them because secrets never leave the
  /// registry; used by every test, golden and example.
  kFast,
  /// Structural tokens with no cryptography at all: a fixed-size tag
  /// binding the signer id. Used by the largest benchmark sweeps, where
  /// authenticator *cost* is charged in simulated time by the cost model
  /// and real hashing would only burn wall-clock (DESIGN.md §16).
  kNone,
};

/// \brief Key directory for all actors in the architecture.
///
/// Plays the role of the public-key certificate infrastructure the paper
/// assumes (§III): every component can verify every other component's DS.
class KeyRegistry {
 public:
  explicit KeyRegistry(CryptoMode mode, uint64_t seed = 1);

  /// Registers an actor and derives its key material from (seed, id)
  /// (idempotent).
  void RegisterNode(ActorId id);

  /// Drops `id`'s key material: Verify for `id` fails from then on and
  /// Sign by `id` aborts. The caller guarantees nobody looks the id up
  /// again (CloudSimulator retires an executor only once it has finished
  /// and its sequence has settled). In concurrent mode only the loop that
  /// owns `id` may call this.
  void Unregister(ActorId id);

  /// Switches the registry into thread-safe mode for parallel simulation
  /// runs: the lazily-grown node table goes behind a shared mutex. Key
  /// material is a pure function of (registry seed, id) in every mode, so
  /// this only adds the lock; serial runs, which never call it, take none.
  /// Call once, after all static actors are registered.
  void EnableConcurrent();

  /// True when `id` has been registered and not unregistered.
  bool IsRegistered(ActorId id) const;

  /// Number of registered actors.
  size_t size() const;

  /// Digital signature by `signer` over `msg`. Deterministic (same inputs
  /// produce the same bytes). Aborts, naming the id, when `signer` is not
  /// registered.
  Bytes Sign(ActorId signer, const Bytes& msg) const;

  /// Verifies a digital signature. Returns false for unknown signers.
  bool Verify(ActorId signer, const Bytes& msg, const Bytes& sig) const;

 private:
  /// Signing secret (32 bytes) of a registered actor. The pointer a
  /// lookup returns outlives the lock because the node map is node-based
  /// (erasing one entry leaves the others in place) and the only entries
  /// ever erased are executors': a plane's loop retires its own finished
  /// executors after its last lookup of them, and no other loop ever
  /// looks a plane's executors up.
  const Bytes* FindSecret(ActorId id) const;
  /// Take mu_ shared or exclusive when concurrent_; otherwise the
  /// returned lock is empty, so the serial path never touches the mutex.
  std::shared_lock<std::shared_mutex> ReadLock() const;
  std::unique_lock<std::shared_mutex> WriteLock() const;

  CryptoMode mode_;
  uint64_t seed_;
  bool concurrent_ = false;
  /// Guards nodes_ when concurrent_.
  mutable std::shared_mutex mu_;
  std::unordered_map<ActorId, Bytes> nodes_;
};

}  // namespace sbft::crypto

#endif  // SBFT_CRYPTO_KEYS_H_
