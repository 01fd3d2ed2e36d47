#include "crypto/keys.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "crypto/digest.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sbft::crypto {

KeyRegistry::KeyRegistry(CryptoMode mode, uint64_t seed)
    : mode_(mode), seed_(seed) {}

void KeyRegistry::EnableConcurrent() { concurrent_ = true; }

std::shared_lock<std::shared_mutex> KeyRegistry::ReadLock() const {
  std::shared_lock<std::shared_mutex> lock;
  if (concurrent_) lock = std::shared_lock(mu_);
  return lock;
}

std::unique_lock<std::shared_mutex> KeyRegistry::WriteLock() const {
  std::unique_lock<std::shared_mutex> lock;
  if (concurrent_) lock = std::unique_lock(mu_);
  return lock;
}

void KeyRegistry::RegisterNode(ActorId id) {
  if (IsRegistered(id)) return;
  // Key material is a pure function of (seed, id): registrations
  // commute, so keys do not depend on registration order, on which plane
  // thread registers an executor first, or on the thread count.
  Sha256 h;
  uint8_t material[13] = {0xcc};  // Domain tag, then seed, then id.
  for (int i = 0; i < 8; ++i) {
    material[1 + i] = static_cast<uint8_t>(seed_ >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    material[9 + i] = static_cast<uint8_t>(id >> (8 * i));
  }
  h.Update(material, sizeof(material));
  Bytes secret = h.Finish().ToBytes();
  auto lock = WriteLock();
  nodes_.emplace(id, std::move(secret));  // No-op if a racer beat us.
}

bool KeyRegistry::IsRegistered(ActorId id) const {
  auto lock = ReadLock();
  return nodes_.contains(id);
}

void KeyRegistry::Unregister(ActorId id) {
  auto lock = WriteLock();
  nodes_.erase(id);
}

size_t KeyRegistry::size() const {
  auto lock = ReadLock();
  return nodes_.size();
}

const Bytes* KeyRegistry::FindSecret(ActorId id) const {
  auto lock = ReadLock();
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Bytes KeyRegistry::Sign(ActorId signer, const Bytes& msg) const {
  // Checked in every build type, not only where assert() is live.
  const Bytes* secret = FindSecret(signer);
  if (secret == nullptr) {
    std::fprintf(stderr, "KeyRegistry: actor %u is not registered\n",
                 static_cast<unsigned>(signer));
    std::abort();
  }
  if (mode_ == CryptoMode::kNone) {
    // Structural token: signer id + cheap content fingerprint, padded to
    // the HMAC size so wire accounting matches kFast.
    Bytes token(Digest::kSize, 0);
    uint64_t fp = Fnv1a64(msg) ^ (static_cast<uint64_t>(signer) << 32);
    for (int i = 0; i < 8; ++i) {
      token[i] = static_cast<uint8_t>(fp >> (8 * i));
    }
    token[8] = static_cast<uint8_t>(signer);
    return token;
  }
  // kFast: HMAC keyed on the signer's private secret, over a domain tag
  // byte and the message.
  Bytes prefixed;
  prefixed.reserve(msg.size() + 1);
  prefixed.push_back(0xd5);
  AppendBytes(&prefixed, msg);
  return HmacSha256(*secret, prefixed).ToBytes();
}

bool KeyRegistry::Verify(ActorId signer, const Bytes& msg,
                         const Bytes& sig) const {
  if (!IsRegistered(signer)) return false;
  Bytes expected = Sign(signer, msg);
  return ConstantTimeEquals(expected, sig);  // Both modes recompute.
}

}  // namespace sbft::crypto
