#ifndef XYDIFF_CORE_CANDIDATES_H_
#define XYDIFF_CORE_CANDIDATES_H_

#include <cstddef>
#include <memory>
#include <span>

#include "delta/diff_tree.h"

namespace xydiff {

/// Phase 3 candidate lookup (§5.2/§5.3): for a subtree of the new document
/// we need all old-document subtrees with the same signature (primary
/// index), and — to keep the per-node cost bounded when a short text
/// occurs thousands of times — the candidate under a *given* parent
/// (secondary index "by their parent's identifier", §5.3).
///
/// Both indexes are sorted flat arrays in one allocation, built once per
/// diff in Phase 2 by two counting passes (no per-key allocation):
/// - primary: every node ordered by (signature, index), beside its sorted
///   signature column; a lookup is a binary search, O(log n);
/// - secondary: each parent's children copied into one contiguous range,
///   ranges in parent order, each ordered by (signature, index); a lookup
///   is a binary search inside the parent's range, O(log fanout).
class CandidateIndex {
 public:
  /// Indexes every subtree of `old_tree`: O(n) expected time (signatures
  /// are hashes), 20n bytes. The tree must have a root (DiffTree::Build
  /// gives it one), and its signatures must be computed and must not
  /// change while the index is in use; match and ID-lock state is read at
  /// lookup time.
  explicit CandidateIndex(const DiffTree* old_tree);

  /// All old-tree subtrees with signature `sig`, in document order
  /// (matched ones included; callers filter). Empty when none exist.
  /// The span stays valid as long as the index.
  std::span<const NodeIndex> Find(Signature sig) const;

  /// An *unmatched*, not ID-locked old-tree subtree with signature `sig`
  /// whose parent is `parent` (a node of the old tree), or kInvalidNode.
  /// Among several such siblings, one at child position
  /// `preferred_position` wins ("the position among siblings plays an
  /// important role too", §5.1); otherwise the first in document order.
  NodeIndex FindUnmatchedWithParent(Signature sig, NodeIndex parent,
                                    int32_t preferred_position = -1) const;

 private:
  const DiffTree* tree_;
  std::unique_ptr<std::byte[]> storage_;
  /// Views into `storage_`. `keys_[k]` is the signature of
  /// `by_signature_[k]`; the children of node p are
  /// `by_parent_[parent_begin_[p] .. parent_begin_[p + 1])`.
  std::span<Signature> keys_;
  std::span<NodeIndex> by_signature_;
  std::span<NodeIndex> by_parent_;
  std::span<int32_t> parent_begin_;
};

}  // namespace xydiff

#endif  // XYDIFF_CORE_CANDIDATES_H_
