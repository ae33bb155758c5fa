#include "core/candidates.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace xydiff {

CandidateIndex::CandidateIndex(const DiffTree* old_tree) : tree_(old_tree) {
  const auto n = static_cast<size_t>(old_tree->size());
  // One allocation for all four arrays: separate buffers (or a temporary
  // array of (signature, node) pairs) measurably raise peak RSS through
  // heap fragmentation on large diffs. The signature column goes first so
  // every array stays naturally aligned.
  const size_t ints = n + n + (n + 1);
  storage_ = std::make_unique_for_overwrite<std::byte[]>(
      n * sizeof(Signature) + ints * sizeof(NodeIndex));
  std::byte* cursor = storage_.get();
  keys_ = {reinterpret_cast<Signature*>(cursor), n};
  cursor += n * sizeof(Signature);
  by_signature_ = {reinterpret_cast<NodeIndex*>(cursor), n};
  by_parent_ = {by_signature_.data() + n, n};
  parent_begin_ = {by_parent_.data() + n, n + 1};

  // Primary: (signature, index) order, so equal signatures stay in
  // document order. A bucket sort on the signatures' top bits: they are
  // hashes, so about one node lands in each of the ~n buckets, and each
  // bucket is then sorted on its own. The bucket cursors borrow the
  // secondary's slots (2n + 1 ints >= buckets + 1), which are not yet in
  // use.
  const size_t buckets = std::bit_ceil(std::max<size_t>(n, 2));
  const int shift = 64 - std::countr_zero(buckets);
  const auto bucket = [old_tree, shift](NodeIndex i) {
    return static_cast<size_t>(old_tree->signature(i) >> shift);
  };
  const std::span<int32_t> cursors(by_parent_.data(), buckets + 1);
  std::fill(cursors.begin(), cursors.end(), 0);
  for (NodeIndex i = 0; i < static_cast<NodeIndex>(n); ++i) {
    ++cursors[bucket(i) + 1];
  }
  std::partial_sum(cursors.begin(), cursors.end(), cursors.begin());
  for (NodeIndex i = 0; i < static_cast<NodeIndex>(n); ++i) {
    by_signature_[static_cast<size_t>(cursors[bucket(i)]++)] = i;
  }
  // cursors[b] has advanced to the end of bucket b.
  const auto by_key = [old_tree](NodeIndex a, NodeIndex b) {
    const Signature sa = old_tree->signature(a);
    const Signature sb = old_tree->signature(b);
    return sa < sb || (sa == sb && a < b);
  };
  auto begin = by_signature_.begin();
  for (size_t b = 0; b < buckets; ++b) {
    const auto end = by_signature_.begin() + cursors[b];
    if (end - begin > 1) std::sort(begin, end, by_key);
    begin = end;
  }
  for (size_t k = 0; k < n; ++k) {
    keys_[k] = old_tree->signature(by_signature_[k]);
  }

  // Secondary: a stable counting sort of the primary order by parent.
  // parent_begin_[p + 1] starts as the first slot of p's range and is the
  // write cursor for p's children; after the scatter it has advanced to
  // the end of p's range, which is where p + 1's range begins.
  parent_begin_[0] = parent_begin_[1] = 0;
  for (size_t p = 0; p + 2 <= n; ++p) {
    const int32_t count = old_tree->child_count(static_cast<NodeIndex>(p));
    parent_begin_[p + 2] = parent_begin_[p + 1] + count;
  }
  for (const NodeIndex c : by_signature_) {
    const NodeIndex p = old_tree->parent(c);
    if (p == kInvalidNode) continue;
    int32_t& slot = parent_begin_[static_cast<size_t>(p) + 1];
    by_parent_[static_cast<size_t>(slot++)] = c;
  }
}

std::span<const NodeIndex> CandidateIndex::Find(Signature sig) const {
  const auto [lo, hi] = std::equal_range(keys_.begin(), keys_.end(), sig);
  return by_signature_.subspan(static_cast<size_t>(lo - keys_.begin()),
                               static_cast<size_t>(hi - lo));
}

NodeIndex CandidateIndex::FindUnmatchedWithParent(
    Signature sig, NodeIndex parent, int32_t preferred_position) const {
  const auto p = static_cast<size_t>(parent);
  const auto end = by_parent_.begin() + parent_begin_[p + 1];
  auto it = std::lower_bound(
      by_parent_.begin() + parent_begin_[p], end, sig,
      [this](NodeIndex c, Signature s) { return tree_->signature(c) < s; });
  NodeIndex first = kInvalidNode;
  for (; it != end && tree_->signature(*it) == sig; ++it) {
    const NodeIndex c = *it;
    if (tree_->matched(c) || tree_->id_locked(c)) continue;
    if (preferred_position < 0 ||
        tree_->position_in_parent(c) == preferred_position) {
      return c;
    }
    if (first == kInvalidNode) first = c;
  }
  return first;
}

}  // namespace xydiff
