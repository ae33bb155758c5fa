#include "core/candidates.h"

#include <set>
#include <string>
#include <vector>

#include "delta/signature.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace xydiff {
namespace {

struct Fixture {
  XmlDocument doc;
  LabelTable labels;
  DiffTree tree;

  explicit Fixture(std::string_view xml) {
    doc = MustParse(xml);
    tree = DiffTree::Build(&doc, &labels);
    DiffOptions options;
    ComputeSignaturesAndWeights(&tree, options);
  }
};

std::vector<NodeIndex> ToVector(std::span<const NodeIndex> span) {
  return {span.begin(), span.end()};
}

TEST(CandidateIndexTest, FindBySignature) {
  // Three identical <p>x</p> subtrees: nodes 1,3,5 (texts 2,4,6).
  Fixture f("<r><p>x</p><p>x</p><p>x</p></r>");
  CandidateIndex index(&f.tree);
  EXPECT_EQ(ToVector(index.Find(f.tree.signature(1))),
            (std::vector<NodeIndex>{1, 3, 5}));
  EXPECT_TRUE(index.Find(0xDEADBEEF).empty());
}

TEST(CandidateIndexTest, FindUnmatchedWithParent) {
  Fixture f("<r><a><p>x</p></a><b><p>x</p></b></r>");
  // Nodes: r=0 a=1 p=2 x=3 b=4 p=5 x=6.
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(2);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 1), 2);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 4), 5);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), kInvalidNode);
}

TEST(CandidateIndexTest, SkipsMatchedCandidates) {
  Fixture f("<r><p>x</p><p>x</p></r>");
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(1);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), 1);
  f.tree.set_match(1, 99);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), 3);
  f.tree.set_match(3, 98);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), kInvalidNode);
}

TEST(CandidateIndexTest, SkipsIdLockedCandidates) {
  Fixture f("<r><p>x</p></r>");
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(1);
  f.tree.set_id_locked(1);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), kInvalidNode);
}

TEST(CandidateIndexTest, PrefersSamePosition) {
  // Identical siblings at positions 0,1,2; a reference node at position
  // 2 should get the position-2 candidate (§5.1: position plays a role).
  Fixture f("<r><p>x</p><p>x</p><p>x</p></r>");
  CandidateIndex index(&f.tree);
  const Signature sig = f.tree.signature(1);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0, 2), 5);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0, 1), 3);
  // Preferred position occupied -> fall back to first free.
  f.tree.set_match(5, 99);
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0, 2), 1);
  // No preference -> first free.
  EXPECT_EQ(index.FindUnmatchedWithParent(sig, 0), 1);
}

TEST(CandidateIndexTest, RootHasNoParentEntry) {
  Fixture f("<r><p>x</p></r>");
  CandidateIndex index(&f.tree);
  // The root's signature exists in the primary index...
  EXPECT_EQ(ToVector(index.Find(f.tree.signature(0))),
            (std::vector<NodeIndex>{0}));
  // ...but no by-parent entry can reach it.
  EXPECT_EQ(index.FindUnmatchedWithParent(f.tree.signature(0), 0),
            kInvalidNode);
}

// --- Randomized comparison against a brute-force scan of the tree -------

/// A random element subtree over a tiny alphabet, so that identical
/// subtrees, identical siblings and long runs of them are common.
std::string RandomSubtree(Rng* rng, int depth) {
  static const char* const kLabels[] = {"a", "b", "c"};
  static const char* const kTexts[] = {"x", "y", "zz"};
  std::string out = std::string("<") + kLabels[rng->NextIndex(3)] + ">";
  const std::string close = "</" + out.substr(1);
  if (depth == 0 || rng->NextBool(0.25)) {
    if (rng->NextBool(0.7)) out += kTexts[rng->NextIndex(3)];
    return out + close;
  }
  const int children = static_cast<int>(rng->NextInRange(1, 5));
  for (int k = 0; k < children; ++k) {
    const std::string child = RandomSubtree(rng, depth - 1);
    // Sometimes a run of identical siblings, up to 12 long.
    const int copies = rng->NextBool(0.2)
                           ? static_cast<int>(rng->NextInRange(2, 12))
                           : 1;
    for (int c = 0; c < copies; ++c) out += child;
  }
  return out + close;
}

std::vector<NodeIndex> BruteFind(const DiffTree& tree, Signature sig) {
  std::vector<NodeIndex> out;
  for (NodeIndex i = 0; i < tree.size(); ++i) {
    if (tree.signature(i) == sig) out.push_back(i);
  }
  return out;
}

NodeIndex BruteFindWithParent(const DiffTree& tree, Signature sig,
                              NodeIndex parent, int32_t preferred) {
  NodeIndex first = kInvalidNode;
  for (int32_t k = 0; k < tree.child_count(parent); ++k) {
    const NodeIndex c = tree.child(parent, k);
    if (tree.signature(c) != sig || tree.matched(c) || tree.id_locked(c)) {
      continue;
    }
    if (preferred < 0 || k == preferred) return c;
    if (first == kInvalidNode) first = c;
  }
  return first;
}

/// Every (signature, parent, preferred position) query over `tree`: each
/// signature among the parent's children plus one absent signature, and
/// every position from "none" to one past the last child.
void CheckAgainstBruteForce(const DiffTree& tree, const CandidateIndex& index,
                            Signature absent) {
  std::set<Signature> signatures;
  for (NodeIndex i = 0; i < tree.size(); ++i) {
    signatures.insert(tree.signature(i));
  }
  for (const Signature sig : signatures) {
    ASSERT_EQ(ToVector(index.Find(sig)), BruteFind(tree, sig));
  }
  ASSERT_TRUE(index.Find(absent).empty());

  for (NodeIndex p = 0; p < tree.size(); ++p) {
    std::set<Signature> queried = {absent};
    for (int32_t k = 0; k < tree.child_count(p); ++k) {
      queried.insert(tree.signature(tree.child(p, k)));
    }
    for (const Signature sig : queried) {
      for (int32_t pos = -1; pos <= tree.child_count(p); ++pos) {
        ASSERT_EQ(index.FindUnmatchedWithParent(sig, p, pos),
                  BruteFindWithParent(tree, sig, p, pos))
            << "parent " << p << " position " << pos;
      }
    }
  }
}

TEST(CandidateIndexTest, RandomTreesMatchBruteForceScan) {
  Rng rng(20020226);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Fixture f(RandomSubtree(&rng, static_cast<int>(rng.NextInRange(1, 5))));
    DiffTree& tree = f.tree;
    CandidateIndex index(&tree);
    Signature absent = rng.Next();
    while (!BruteFind(tree, absent).empty()) absent = rng.Next();

    // The index reads match and ID-lock state at lookup time: check it
    // fresh, then after each of several rounds of random state changes.
    ASSERT_NO_FATAL_FAILURE(CheckAgainstBruteForce(tree, index, absent));
    for (int round = 0; round < 3; ++round) {
      for (NodeIndex i = 0; i < tree.size(); ++i) {
        if (rng.NextBool(0.3)) {
          tree.set_match(i, tree.matched(i) ? kInvalidNode : i);
        }
        if (rng.NextBool(0.05)) tree.set_id_locked(i);
      }
      ASSERT_NO_FATAL_FAILURE(CheckAgainstBruteForce(tree, index, absent));
    }
  }
}

}  // namespace
}  // namespace xydiff
