#include "delta/apply.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "xid/xid_map.h"
#include "xml/xid_map_tree.h"

namespace xydiff {

namespace {

/// One pending attachment: an insert snapshot or a detached moved subtree.
struct Attachment {
  Xid parent_xid = kNoXid;
  uint32_t pos = 0;  // 1-based target position.
  XmlNodePtr subtree;
  uint64_t seq = 0;  // Stable tiebreak for diagnostics.
};

}  // namespace

/// XID -> node map over one working document: open addressing with
/// linear probing over a power-of-two slot array and backward-shift
/// erase, sized from the node count at build, so its memory follows the
/// document rather than the XID allocator. kNoXid marks an empty slot;
/// a node still carrying kNoXid is kept beside the array.
class XidTable {
 public:
  bool built() const { return !slots_.empty(); }

  /// Indexes every node of the subtree under `root`.
  void Build(XmlNode* root) {
    slots_.clear();
    unassigned_ = nullptr;
    Resize(2 * root->SubtreeSize());
    root->Visit([&](XmlNode* n) { Insert(n->xid(), n); });
  }

  XmlNode* Find(Xid xid) const {
    if (xid == kNoXid) return unassigned_;
    for (size_t i = Home(xid);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.xid == xid) return slot.node;
      if (slot.xid == kNoXid) return nullptr;
    }
  }

  /// Maps `xid` to `node` unless `xid` is already present; returns
  /// whether it was added.
  bool Insert(Xid xid, XmlNode* node) {
    if (xid == kNoXid) {
      if (unassigned_ != nullptr) return false;
      unassigned_ = node;
      return true;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) Resize(2 * slots_.size());
    size_t i = Home(xid);
    for (; slots_[i].xid != kNoXid; i = (i + 1) & mask_) {
      if (slots_[i].xid == xid) return false;
    }
    slots_[i] = Slot{xid, node};
    ++size_;
    return true;
  }

  void Erase(Xid xid) {
    if (xid == kNoXid) {
      unassigned_ = nullptr;
      return;
    }
    size_t hole = Home(xid);
    for (; slots_[hole].xid != xid; hole = (hole + 1) & mask_) {
      if (slots_[hole].xid == kNoXid) return;
    }
    // Backward shift: pull each later entry of the probe run into the
    // hole unless that would move it before its home slot.
    for (size_t j = (hole + 1) & mask_; slots_[j].xid != kNoXid;
         j = (j + 1) & mask_) {
      if (((j - Home(slots_[j].xid)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

 private:
  struct Slot {
    Xid xid = kNoXid;
    XmlNode* node = nullptr;
  };

  size_t Home(Xid xid) const {
    // Fibonacci hashing: XIDs are dense integers, the high bits of the
    // product spread them over the table.
    return static_cast<size_t>((xid * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Re-lays the entries into a power-of-two array of at least
  /// `min_slots` slots.
  void Resize(size_t min_slots) {
    size_t capacity = 16;
    int bits = 4;
    while (capacity < min_slots) {
      capacity <<= 1;
      ++bits;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - bits;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.xid != kNoXid) Insert(slot.xid, slot.node);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
  XmlNode* unassigned_ = nullptr;
};

namespace {

/// Applies one delta, forwards or with its roles swapped (the inverse),
/// to `*doc`, resolving XIDs through `*index`. The index must cover the
/// document or be unbuilt, in which case Run builds it; on success it
/// covers the result. A delete unregisters the detached subtree, an
/// insert registers its clone, and a move keeps its XIDs.
class Applier {
 public:
  Applier(const Delta& delta, bool inverse, XmlDocument* doc, XidTable* index,
          const ApplyOptions& options)
      : delta_(delta),
        inverse_(inverse),
        doc_(doc),
        index_(index),
        options_(options) {}

  Status Run() {
    if (doc_->root() == nullptr) {
      return Status::InvalidArgument("cannot apply a delta to an empty document");
    }
    // Virtual super-root (XID 0) so root replacement needs no special case.
    // It is created in the document's own memory domain: a heap super-root
    // over an arena-backed tree would force AppendChild to adoption-clone
    // the entire document.
    doc_domain_ = doc_->arena();
    super_root_ = doc_domain_ != nullptr
                      ? XmlNode::ElementIn(doc_domain_, "#document")
                      : XmlNode::Element("#document");
    XmlNode* root = super_root_->AppendChild(doc_->take_root());
    if (!index_->built()) index_->Build(root);

    Status status = RunPhases();
    if (!status.ok()) {
      // Best-effort restore: the tree may be partially modified (that is
      // documented), but the document must not be left empty.
      if (super_root_->child_count() > 0) {
        doc_->set_root(super_root_->RemoveChild(0));
      }
      return status;
    }

    if (super_root_->child_count() != 1) {
      const size_t roots = super_root_->child_count();
      if (roots > 0) doc_->set_root(super_root_->RemoveChild(0));
      return Status::Corruption("delta left the document with " +
                                std::to_string(roots) + " roots");
    }
    doc_->set_root(super_root_->RemoveChild(0));
    const Xid next_xid =
        inverse_ ? delta_.old_next_xid() : delta_.new_next_xid();
    doc_->ReserveXidsThrough(next_xid > 0 ? next_xid - 1 : 0);
    return Status::OK();
  }

 private:
  Status RunPhases() {
    XYDIFF_RETURN_IF_ERROR(ApplyUpdates());
    XYDIFF_RETURN_IF_ERROR(ApplyAttributeOps());
    XYDIFF_RETURN_IF_ERROR(DetachMoves());
    // Read inverted, the inserts are the deletes and vice versa; both
    // carry the same (xid, parent, pos, snapshot) fields.
    if (inverse_) {
      XYDIFF_RETURN_IF_ERROR(ApplyDeletes(delta_.inserts()));
      return Attach(delta_.deletes());
    }
    XYDIFF_RETURN_IF_ERROR(ApplyDeletes(delta_.deletes()));
    return Attach(delta_.inserts());
  }

  Result<XmlNode*> Lookup(Xid xid, const char* what) {
    if (xid == kNoXid) return static_cast<XmlNode*>(super_root_.get());
    XmlNode* node = index_->Find(xid);
    if (node == nullptr) {
      return Status::NotFound(std::string(what) + ": no node with XID " +
                              std::to_string(xid));
    }
    return node;
  }

  Status ApplyUpdates() {
    for (const UpdateOp& op : delta_.updates()) {
      const std::string& old_value = inverse_ ? op.new_value : op.old_value;
      const std::string& new_value = inverse_ ? op.old_value : op.new_value;
      Result<XmlNode*> node = Lookup(op.xid, "update");
      if (!node.ok()) return node.status();
      if (!(*node)->is_text()) {
        return Status::Conflict("update target XID " + std::to_string(op.xid) +
                                " is not a text node");
      }
      const std::string_view current = (*node)->text();
      if (!op.is_compressed()) {
        if (options_.verify && current != old_value) {
          return Status::Conflict("update of XID " + std::to_string(op.xid) +
                                  ": old value mismatch");
        }
        (*node)->set_text(new_value);
        continue;
      }
      // Compressed form: splice the new middle between the shared prefix
      // and suffix taken from the current text.
      const size_t kept = static_cast<size_t>(op.prefix) + op.suffix;
      if (current.size() != kept + old_value.size() ||
          (options_.verify &&
           current.compare(op.prefix, old_value.size(), old_value) != 0)) {
        return Status::Conflict("compressed update of XID " +
                                std::to_string(op.xid) +
                                ": old value mismatch");
      }
      std::string next;
      next.reserve(kept + new_value.size());
      next.append(current, 0, op.prefix);
      next.append(new_value);
      next.append(current, current.size() - op.suffix, op.suffix);
      (*node)->set_text(std::move(next));
    }
    return Status::OK();
  }

  Status ApplyAttributeOps() {
    for (const AttributeOp& op : delta_.attribute_ops()) {
      Result<XmlNode*> node = Lookup(op.element_xid, "attribute op");
      if (!node.ok()) return node.status();
      XmlNode* element = *node;
      if (!element->is_element()) {
        return Status::Conflict("attribute op target XID " +
                                std::to_string(op.element_xid) +
                                " is not an element");
      }
      AttributeOpKind kind = op.kind;
      if (inverse_ && kind == AttributeOpKind::kInsert) {
        kind = AttributeOpKind::kDelete;
      } else if (inverse_ && kind == AttributeOpKind::kDelete) {
        kind = AttributeOpKind::kInsert;
      }
      const std::string& old_value = inverse_ ? op.new_value : op.old_value;
      const std::string& new_value = inverse_ ? op.old_value : op.new_value;
      const std::string_view* current = element->FindAttribute(op.name);
      switch (kind) {
        case AttributeOpKind::kInsert:
          if (options_.verify && current != nullptr) {
            return Status::Conflict("attribute insert: '" + op.name +
                                    "' already present on XID " +
                                    std::to_string(op.element_xid));
          }
          element->SetAttribute(op.name, new_value);
          break;
        case AttributeOpKind::kDelete:
          if (options_.verify &&
              (current == nullptr || *current != old_value)) {
            return Status::Conflict("attribute delete: '" + op.name +
                                    "' state mismatch on XID " +
                                    std::to_string(op.element_xid));
          }
          element->RemoveAttribute(op.name);
          break;
        case AttributeOpKind::kUpdate:
          if (options_.verify &&
              (current == nullptr || *current != old_value)) {
            return Status::Conflict("attribute update: '" + op.name +
                                    "' old value mismatch on XID " +
                                    std::to_string(op.element_xid));
          }
          element->SetAttribute(op.name, new_value);
          break;
      }
    }
    return Status::OK();
  }

  /// Detaches a node from wherever it currently lives (main tree or
  /// inside an already-detached subtree).
  static XmlNodePtr Detach(XmlNode* node) {
    XmlNode* parent = node->parent();
    return parent->RemoveChild(node->IndexInParent());
  }

  Status DetachMoves() {
    for (const MoveOp& op : delta_.moves()) {
      Result<XmlNode*> node = Lookup(op.xid, "move");
      if (!node.ok()) return node.status();
      if ((*node)->parent() == nullptr) {
        return Status::Conflict("move source XID " + std::to_string(op.xid) +
                                " detached twice");
      }
      attachments_.push_back(
          Attachment{inverse_ ? op.from_parent : op.to_parent,
                     inverse_ ? op.from_pos : op.to_pos, Detach(*node),
                     seq_++});
    }
    return Status::OK();
  }

  /// `ops` are the deletes as read in this direction: DeleteOps forwards,
  /// InsertOps inverted.
  template <typename Op>
  Status ApplyDeletes(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      Result<XmlNode*> node = Lookup(op.xid, "delete");
      if (!node.ok()) return node.status();
      if ((*node)->parent() == nullptr) {
        return Status::Conflict("delete target XID " + std::to_string(op.xid) +
                                " already detached");
      }
      XmlNodePtr removed = Detach(*node);
      if (options_.verify && op.subtree != nullptr) {
        if (!removed->DeepEquals(*op.subtree) ||
            XidMapFromSubtree(*removed) != XidMapFromSubtree(*op.subtree)) {
          return Status::Conflict("delete of XID " + std::to_string(op.xid) +
                                  ": subtree does not match snapshot");
        }
      }
      removed->Visit([&](const XmlNode* n) { index_->Erase(n->xid()); });
    }
    return Status::OK();
  }

  /// `ops` are the inserts as read in this direction: InsertOps forwards,
  /// DeleteOps inverted.
  template <typename Op>
  Status Attach(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      if (op.subtree == nullptr) {
        return Status::InvalidArgument("insert op without subtree snapshot");
      }
      // Clone straight into the document's domain: InsertChild must not
      // adoption-clone later, or the pointers registered in the index
      // below would dangle.
      XmlNodePtr subtree = op.subtree->Clone(doc_domain_);
      // Register the new nodes so that nested attachments can target them.
      Status conflict = Status::OK();
      subtree->Visit([&](XmlNode* n) {
        if (!index_->Insert(n->xid(), n) && conflict.ok() &&
            options_.verify) {
          conflict = Status::Conflict("insert introduces duplicate XID " +
                                      std::to_string(n->xid()));
        }
      });
      XYDIFF_RETURN_IF_ERROR(conflict);
      attachments_.push_back(
          Attachment{op.parent_xid, op.pos, std::move(subtree), seq_++});
    }

    // Ascending target position within each parent reproduces the target
    // child order (non-moved siblings keep their relative order).
    std::sort(attachments_.begin(), attachments_.end(),
              [](const Attachment& a, const Attachment& b) {
                if (a.parent_xid != b.parent_xid) {
                  return a.parent_xid < b.parent_xid;
                }
                if (a.pos != b.pos) return a.pos < b.pos;
                return a.seq < b.seq;
              });
    for (auto& attachment : attachments_) {
      Result<XmlNode*> parent = Lookup(attachment.parent_xid, "attach");
      if (!parent.ok()) return parent.status();
      if (!(*parent)->is_element()) {
        return Status::Conflict("attach parent XID " +
                                std::to_string(attachment.parent_xid) +
                                " is not an element");
      }
      if (attachment.pos == 0 ||
          static_cast<size_t>(attachment.pos) >
              (*parent)->child_count() + 1) {
        if (options_.verify && !options_.clamp_positions) {
          return Status::Conflict(
              "attach position " + std::to_string(attachment.pos) +
              " out of range under XID " +
              std::to_string(attachment.parent_xid));
        }
      }
      const size_t index =
          attachment.pos == 0
              ? 0
              : std::min<size_t>(attachment.pos - 1, (*parent)->child_count());
      // The index holds pointers into this subtree: an adoption clone in
      // InsertChild would leave them dangling.
      assert(attachment.subtree->domain() == doc_domain_);
      (*parent)->InsertChild(index, std::move(attachment.subtree));
    }
    return Status::OK();
  }

  const Delta& delta_;
  const bool inverse_;
  XmlDocument* doc_;
  XidTable* index_;
  ApplyOptions options_;
  XmlNodePtr super_root_;
  Arena* doc_domain_ = nullptr;
  std::vector<Attachment> attachments_;
  uint64_t seq_ = 0;
};

}  // namespace

Status ApplyDelta(const Delta& delta, XmlDocument* doc,
                  const ApplyOptions& options) {
  XidTable index;
  return Applier(delta, /*inverse=*/false, doc, &index, options).Run();
}

Status ApplyDeltaInverse(const Delta& delta, XmlDocument* doc,
                         const ApplyOptions& options) {
  XidTable index;
  return Applier(delta, /*inverse=*/true, doc, &index, options).Run();
}

DeltaPathApplicator::DeltaPathApplicator(XmlDocument base)
    : doc_(std::move(base)), index_(std::make_unique<XidTable>()) {}

DeltaPathApplicator::~DeltaPathApplicator() = default;

Status DeltaPathApplicator::Push(const Delta& delta, bool inverse) {
  ApplyOptions options;
  options.verify = false;
  ++applications_;
  Status status = Applier(delta, inverse, &doc_, index_.get(), options).Run();
  // A failed step drops its pending subtrees, which the index may still
  // point into: rebuild it from the document on the next Push.
  if (!status.ok()) index_ = std::make_unique<XidTable>();
  return status;
}

}  // namespace xydiff
