#ifndef SBFT_CRYPTO_MERKLE_H_
#define SBFT_CRYPTO_MERKLE_H_

#include <vector>

#include "crypto/digest.h"

namespace sbft::crypto {

/// \brief Binary Merkle root over a list of digests.
///
/// Featherweight checkpoints (paper §V-B) exchange only signed proofs of
/// committed requests: each CHECKPOINT carries the Merkle root over the
/// digests of its window, and 2f+1 matching roots make the window stable.
/// A node in the dark runs Validate on each compact certificate a
/// CHECKPOINT carries before adopting it; no inclusion proof is built.
class MerkleTree {
 public:
  /// Root of the tree; odd nodes are paired with themselves. Empty input
  /// produces the all-zero digest.
  static Digest ComputeRoot(const std::vector<Digest>& leaves);

 private:
  static Digest HashPair(const Digest& left, const Digest& right);
};

}  // namespace sbft::crypto

#endif  // SBFT_CRYPTO_MERKLE_H_
