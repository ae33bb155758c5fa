#ifndef XYDIFF_DELTA_APPLY_H_
#define XYDIFF_DELTA_APPLY_H_

#include <memory>

#include "delta/delta.h"
#include "util/status.h"
#include "xml/document.h"

namespace xydiff {

/// Application configuration.
struct ApplyOptions {
  /// Verify that deleted subtrees match their snapshots, that updates see
  /// the recorded old value, and that attribute operations see the
  /// recorded old state. Catches deltas applied to the wrong version.
  bool verify = true;

  /// Accept attach positions beyond the current child count by clamping
  /// to the end instead of failing. Used by the three-way merge, where a
  /// concurrent delta may have shrunk a child list the positions were
  /// computed against.
  bool clamp_positions = false;
};

/// Applies `delta` to `*doc`, transforming it from the delta's source
/// version into its target version (§4).
///
/// A delta is a *set* of operations; application imposes the canonical
/// order that makes the set semantics well-defined:
///   1. text updates and attribute operations (addressed by XID);
///   2. detach every moved subtree (by XID, wherever it currently lives —
///      including inside other detached subtrees);
///   3. detach every deleted subtree and check it against its snapshot
///      (moved-away descendants are already gone, matching the snapshot);
///   4. attach inserted snapshots and moved subtrees at their recorded
///      (parent XID, target position), in ascending position order per
///      parent — non-moved siblings keep their relative order, so
///      ascending attachment reproduces the target child sequence exactly.
/// The document root is handled through a virtual super-root (XID 0,
/// position 1), so even a full root replacement is just ops.
///
/// On success the document's XID allocator advances to the delta's
/// new-version state. On failure the document may be partially modified;
/// apply to a clone when that matters.
Status ApplyDelta(const Delta& delta, XmlDocument* doc,
                  const ApplyOptions& options = {});

/// Applies the inverse of `delta` (target version -> source version).
/// Equivalent to `ApplyDelta(InvertDelta(delta), doc)` — same result,
/// same verification, same Status codes — without materializing the
/// inverse: the delta is read with its roles swapped (deletes as
/// inserts and back, move origin and destination, old and new values
/// and next-XID states), so each snapshot is cloned once, straight into
/// the document.
Status ApplyDeltaInverse(const Delta& delta, XmlDocument* doc,
                         const ApplyOptions& options = {});

/// XID index of a DeltaPathApplicator's working document (apply.cc).
class XidTable;

/// Piecewise application of a path of consecutive deltas, after the
/// piecewise applicator of monotone's xdelta: one working document is
/// threaded through the whole path instead of materializing every
/// intermediate version as its own tree. Used by the version store's
/// reconstruction (version/repository.h), whose checkpoint + skip-delta
/// plan is exactly such a path.
///
/// Cost: O(base) once, for the XID index built at the first Push, plus
/// O(|delta|) per Push. The applicator keeps that one index current
/// through the whole path (a delete unregisters its subtree, an insert
/// registers its clone, a move keeps its XIDs) instead of re-indexing
/// the document at every step, and an inverse step reads the delta with
/// its roles swapped instead of copying it.
///
/// Per-step verification is off: the store proves chain integrity when
/// it loads (CRC-64 per file plus a chain replay on any degradation),
/// and re-checking every snapshot at every hop would cost more than the
/// application itself. Apply the path to a throwaway clone when a step
/// may legitimately fail; after a failed Push the next one re-indexes
/// the document.
class DeltaPathApplicator {
 public:
  /// Starts from `base` — the version at the beginning of the path.
  explicit DeltaPathApplicator(XmlDocument base);
  ~DeltaPathApplicator();

  DeltaPathApplicator(const DeltaPathApplicator&) = delete;
  DeltaPathApplicator& operator=(const DeltaPathApplicator&) = delete;

  /// Applies one more delta of the path (inverted when `inverse`).
  Status Push(const Delta& delta, bool inverse = false);

  /// Number of delta applications performed so far.
  size_t applications() const { return applications_; }

  /// Hands back the document at the end of the path.
  XmlDocument Finish() && { return std::move(doc_); }

 private:
  XmlDocument doc_;
  std::unique_ptr<XidTable> index_;  // Covers doc_ once built.
  size_t applications_ = 0;
};

}  // namespace xydiff

#endif  // XYDIFF_DELTA_APPLY_H_
