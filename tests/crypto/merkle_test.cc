#include "crypto/merkle.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

namespace sbft::crypto {
namespace {

std::vector<Digest> MakeLeaves(int n) {
  std::vector<Digest> leaves;
  for (int i = 0; i < n; ++i) {
    leaves.push_back(Sha256::Hash("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasZeroRoot) {
  EXPECT_EQ(MerkleTree::ComputeRoot({}), Digest());
}

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  auto leaves = MakeLeaves(1);
  EXPECT_EQ(MerkleTree::ComputeRoot(leaves), leaves[0]);
}

TEST(MerkleTest, RootDependsOnEveryLeaf) {
  auto leaves = MakeLeaves(8);
  Digest root = MerkleTree::ComputeRoot(leaves);
  for (int i = 0; i < 8; ++i) {
    auto mutated = leaves;
    mutated[i] = Sha256::Hash("mutated");
    EXPECT_NE(MerkleTree::ComputeRoot(mutated), root) << "leaf " << i;
  }
}

TEST(MerkleTest, RootDependsOnOrder) {
  auto leaves = MakeLeaves(4);
  auto swapped = leaves;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(MerkleTree::ComputeRoot(leaves), MerkleTree::ComputeRoot(swapped));
}

TEST(MerkleTest, LeafRootDomainSeparated) {
  // A two-leaf root must differ from hashing the concatenation directly
  // (interior nodes are domain-separated).
  auto leaves = MakeLeaves(2);
  Sha256 h;
  h.Update(leaves[0].data(), Digest::kSize);
  h.Update(leaves[1].data(), Digest::kSize);
  EXPECT_NE(MerkleTree::ComputeRoot(leaves), h.Finish());
}

}  // namespace
}  // namespace sbft::crypto
