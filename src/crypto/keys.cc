#include "crypto/keys.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sbft::crypto {

KeyRegistry::KeyRegistry(CryptoMode mode, uint64_t seed,
                         const SchnorrGroup* group)
    : mode_(mode),
      group_(group != nullptr ? group
                              : (mode == CryptoMode::kReal
                                     ? &SchnorrGroup::Small()
                                     : nullptr)),
      seed_(seed) {}

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
  NodeKeys keys;
  Sha256 h;
  uint8_t material[13] = {0xcc};  // Domain tag, then seed, then id.
  for (int i = 0; i < 8; ++i) {
    material[1 + i] = static_cast<uint8_t>(seed_ >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    material[9 + i] = static_cast<uint8_t>(id >> (8 * i));
  }
  h.Update(material, sizeof(material));
  keys.secret = h.Finish().ToBytes();
  if (mode_ == CryptoMode::kReal) {
    Rng local(seed_ ^ (0x9e3779b97f4a7c15ull * (id + 1)));
    keys.schnorr = SchnorrGenerateKey(*group_, &local);
  }
  auto lock = WriteLock();
  nodes_.emplace(id, std::move(keys));  // No-op if a racer beat us.
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

const KeyRegistry::NodeKeys& KeyRegistry::KeysFor(ActorId id) const {
  const NodeKeys* keys = FindKeys(id);
  if (keys == nullptr) {
    std::fprintf(stderr, "KeyRegistry: actor %u is not registered\n",
                 static_cast<unsigned>(id));
    std::abort();
  }
  return *keys;
}

const KeyRegistry::NodeKeys* KeyRegistry::FindKeys(ActorId id) const {
  auto lock = ReadLock();
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Bytes KeyRegistry::Sign(ActorId signer, const Bytes& msg) const {
  const NodeKeys& keys = KeysFor(signer);
  if (mode_ == CryptoMode::kReal) {
    return SchnorrSign(*group_, keys.schnorr.secret, msg).Serialize();
  }
  if (mode_ == CryptoMode::kNone) {
    // Structural token: signer id + cheap content fingerprint, padded to
    // the MAC size so wire accounting matches kFast.
    Bytes token(Digest::kSize, 0);
    uint64_t fp = Fnv1a64(msg) ^ (static_cast<uint64_t>(signer) << 32);
    for (int i = 0; i < 8; ++i) {
      token[i] = static_cast<uint8_t>(fp >> (8 * i));
    }
    token[8] = static_cast<uint8_t>(signer);
    return token;
  }
  // kFast: HMAC keyed on the signer's private secret. Domain-separated
  // from MACs by a prefix byte.
  Bytes prefixed;
  prefixed.reserve(msg.size() + 1);
  prefixed.push_back(0xd5);
  AppendBytes(&prefixed, msg);
  return HmacSha256(keys.secret, prefixed).ToBytes();
}

bool KeyRegistry::Verify(ActorId signer, const Bytes& msg,
                         const Bytes& sig) const {
  const NodeKeys* keys = FindKeys(signer);
  if (keys == nullptr) return false;
  if (mode_ == CryptoMode::kReal) {
    SchnorrSignature parsed;
    if (!SchnorrSignature::Deserialize(sig, &parsed).ok()) return false;
    return SchnorrVerify(*group_, keys->schnorr.public_key, msg, parsed);
  }
  Bytes expected = Sign(signer, msg);
  return ConstantTimeEquals(expected, sig);  // kFast and kNone recompute.
}

bool KeyRegistry::BatchVerify(const std::vector<BatchItem>& items) const {
  if (mode_ != CryptoMode::kReal) {
    for (const BatchItem& it : items) {
      if (!Verify(it.signer, *it.msg, *it.sig)) return false;
    }
    return true;
  }
  std::vector<SchnorrSignature> parsed(items.size());
  std::vector<SchnorrBatchItem> batch(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const NodeKeys* keys = FindKeys(items[i].signer);
    if (keys == nullptr) return false;
    if (!SchnorrSignature::Deserialize(*items[i].sig, &parsed[i]).ok()) {
      return false;
    }
    batch[i] = {&keys->schnorr.public_key, items[i].msg, &parsed[i]};
  }
  return SchnorrBatchVerify(*group_, batch);
}

namespace {
constexpr size_t kMaxValidCertMemo = 4096;
}  // namespace

bool KeyRegistry::IsKnownValid(const Digest& fingerprint) const {
  std::string key(reinterpret_cast<const char*>(fingerprint.data()),
                  Digest::kSize);
  auto lock = ReadLock();
  return valid_certs_.contains(key);
}

void KeyRegistry::RecordValid(const Digest& fingerprint) const {
  std::string key(reinterpret_cast<const char*>(fingerprint.data()),
                  Digest::kSize);
  auto lock = WriteLock();
  auto [_, inserted] = valid_certs_.insert(key);
  if (!inserted) return;
  valid_certs_order_.push_back(std::move(key));
  while (valid_certs_order_.size() > kMaxValidCertMemo) {
    valid_certs_.erase(valid_certs_order_.front());
    valid_certs_order_.pop_front();
  }
}

const Bytes& KeyRegistry::MacKey(ActorId a, ActorId b) const {
  ActorId lo = std::min(a, b);
  ActorId hi = std::max(a, b);
  uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
  {
    auto lock = ReadLock();
    auto it = mac_keys_.find(key);
    if (it != mac_keys_.end()) return it->second;
  }
  // Computed outside the lock (KeysFor takes it shared); racers derive
  // the same bytes and emplace keeps whichever landed first. The
  // reference stays valid: mac_keys_ is node-based and never erases. The
  // two KeysFor references are safe for the reason FindKeys gives.
  Bytes shared;
  if (mode_ == CryptoMode::kReal) {
    // Diffie–Hellman between the pair's Schnorr keys (§III).
    shared = DiffieHellmanSharedKey(*group_, KeysFor(lo).schnorr.secret,
                                    KeysFor(hi).schnorr.public_key);
  } else {
    Sha256 h;
    h.Update(KeysFor(lo).secret);
    h.Update(KeysFor(hi).secret);
    shared = h.Finish().ToBytes();
  }
  auto lock = WriteLock();
  auto [inserted, _] = mac_keys_.emplace(key, std::move(shared));
  return inserted->second;
}

Digest KeyRegistry::Mac(ActorId from, ActorId to, const Bytes& msg) const {
  if (mode_ == CryptoMode::kNone) {
    Digest d;
    uint64_t lo = std::min(from, to), hi = std::max(from, to);
    uint64_t fp = Fnv1a64(msg) ^ (lo << 40) ^ (hi << 8) ^ 0x4d41u;
    for (int i = 0; i < 8; ++i) {
      d.mutable_data()[i] = static_cast<uint8_t>(fp >> (8 * i));
    }
    return d;
  }
  return HmacSha256(MacKey(from, to), msg);
}

bool KeyRegistry::VerifyMac(ActorId from, ActorId to, const Bytes& msg,
                            const Digest& tag) const {
  if (!IsRegistered(from) || !IsRegistered(to)) return false;
  Digest expected = Mac(from, to, msg);
  return ConstantTimeEquals(expected.ToBytes(), tag.ToBytes());
}

size_t KeyRegistry::SignatureSize() const {
  if (mode_ == CryptoMode::kReal) {
    // Length-prefixed commitment (mod p) plus scalar (mod q).
    size_t group_elem = (group_->p.BitLength() + 7) / 8;
    size_t scalar = (group_->q.BitLength() + 7) / 8;
    return (group_elem + 1) + (scalar + 1);
  }
  return Digest::kSize;
}

}  // namespace sbft::crypto
