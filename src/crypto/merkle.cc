#include "crypto/merkle.h"

#include "crypto/sha256.h"

namespace sbft::crypto {

Digest MerkleTree::HashPair(const Digest& left, const Digest& right) {
  Sha256 h;
  uint8_t domain = 0x01;  // Interior-node domain separation.
  h.Update(&domain, 1);
  h.Update(left.data(), Digest::kSize);
  h.Update(right.data(), Digest::kSize);
  return h.Finish();
}

Digest MerkleTree::ComputeRoot(const std::vector<Digest>& leaves) {
  if (leaves.empty()) return Digest();
  std::vector<Digest> level = leaves;
  while (level.size() > 1) {
    std::vector<Digest> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i < level.size(); i += 2) {
      const Digest& left = level[i];
      const Digest& right = (i + 1 < level.size()) ? level[i + 1] : level[i];
      next.push_back(HashPair(left, right));
    }
    level = std::move(next);
  }
  return level[0];
}

}  // namespace sbft::crypto
