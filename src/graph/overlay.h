#ifndef EMIGRE_GRAPH_OVERLAY_H_
#define EMIGRE_GRAPH_OVERLAY_H_

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/hin_graph.h"
#include "graph/types.h"
#include "util/status.h"
#include "util/string_util.h"

namespace emigre::graph {

/// \brief A counterfactual view over an immutable base graph.
///
/// The EMiGRe TEST step (and every candidate-explanation evaluation) must
/// score a recommendation on "G with a handful of user-rooted edges added or
/// removed" (Definition 4.2). Copying the graph per candidate would dominate
/// the runtime; mutating the shared graph would preclude running scenarios
/// in parallel. The overlay records edits — a removed-edge set and per-node
/// added-edge lists — and exposes the same traversal interface as the base,
/// so the PPR engines are generic over either (see ppr/graph_traits.h).
///
/// The base may be any `GraphLike` view that additionally provides
/// `IsValidNode`, `HasEdge`, `EdgeWeight` and `ForEachInEdge` — a
/// `HinGraph` (the `GraphOverlay` alias below), a `CsrGraph` snapshot (the
/// testers' base: contiguous neighbor/weight arrays) or an mmap-backed
/// `CsrSnapshotView` (csr_snapshot.h) serve equally.
///
/// `Clear()` returns the view to the untouched base, so over an immutable
/// base repeated edit → evaluate → Clear cycles traverse edges in the same
/// order every time (a mutated `HinGraph` loses that: remove + re-add
/// moves the edge to the end of its adjacency list). The testers' verdicts
/// are deterministic across candidates because of it.
///
/// Every edit flags its src and dst in a byte per node of the base. A
/// Why-Not edit touches only the user's row (Definition 4.2), so nearly
/// every node stays unflagged, and for those `OutWeight`, `OutDegree`,
/// `InDegree`, `ForEachOutEdge` and `ForEachInEdge` return the base's
/// answer with no hash probe: a power iteration over the overlay walks the
/// same edges in the same order as over the base, at the base's speed.
/// Edits are confined to the nodes the base had when the overlay was built;
/// an edit on a node past the flags fails with InvalidArgument.
///
/// Overlays are cheap to `Clear()` (it resets only the flags it set) and
/// cost one byte per node to construct. Several overlays over the same
/// base may be used concurrently from different threads as long as the
/// base is not mutated.
template <typename BaseT>
class BasicGraphOverlay {
 public:
  explicit BasicGraphOverlay(const BaseT& base)
      : base_(&base), edited_(base.NumNodes(), 0) {}

  const BaseT& base() const { return *base_; }

  // --- Edits ----------------------------------------------------------------

  /// Adds (src, dst, type, weight) on top of the base. Restores the original
  /// weight instead if that exact edge was previously removed through this
  /// overlay. Fails with AlreadyExists if the edge is already present in the
  /// effective graph — a base edge re-weighted by `SetWeight` included.
  [[nodiscard]]
  Status AddEdge(NodeId src, NodeId dst, EdgeTypeId type, double weight = 1.0) {
    EMIGRE_RETURN_IF_ERROR(MarkEdited("AddEdge", src, dst));
    if (!(weight > 0.0)) {
      return Status::InvalidArgument(
          "overlay AddEdge: weight must be positive");
    }
    // Checked before the un-remove below: `SetWeight` masks a base edge too,
    // and its re-weighted copy must not gain a twin.
    if (HasEdge(src, dst, type)) {
      return Status::AlreadyExists(
          StrFormat("overlay: edge (%u, %u, type=%u) already present", src,
                    dst, type));
    }
    EdgeRef ref{src, dst, type};
    if (auto it = removed_.find(ref); it != removed_.end()) {
      // Un-remove: the base edge becomes visible again with its base weight.
      removed_.erase(it);
      if (--removed_src_[src] == 0) removed_src_.erase(src);
      if (--removed_dst_[dst] == 0) removed_dst_.erase(dst);
      out_weight_delta_[src] += base_->EdgeWeight(src, dst, type);
      return Status::OK();
    }
    added_out_[src].push_back(Edge{dst, type, weight});
    added_in_[dst].push_back(Edge{src, type, weight});
    out_weight_delta_[src] += weight;
    ++num_added_;
    return Status::OK();
  }

  /// Removes (src, dst, type) from the effective graph — either masking a
  /// base edge or undoing a previous overlay addition.
  [[nodiscard]] Status RemoveEdge(NodeId src, NodeId dst, EdgeTypeId type) {
    EMIGRE_RETURN_IF_ERROR(MarkEdited("RemoveEdge", src, dst));
    // Undo an overlay addition first, if present.
    if (auto it = added_out_.find(src); it != added_out_.end()) {
      double w = EraseEntry(&it->second, dst, type);
      if (w >= 0.0) {
        if (it->second.empty()) added_out_.erase(it);
        auto in_it = added_in_.find(dst);
        EraseEntry(&in_it->second, src, type);
        if (in_it->second.empty()) added_in_.erase(in_it);
        out_weight_delta_[src] -= w;
        --num_added_;
        return Status::OK();
      }
    }
    EdgeRef ref{src, dst, type};
    if (removed_.count(ref) > 0) {
      return Status::NotFound(
          StrFormat("overlay: edge (%u, %u, type=%u) already removed", src,
                    dst, type));
    }
    double base_weight = base_->EdgeWeight(src, dst, type);
    if (base_weight <= 0.0) {
      return Status::NotFound(StrFormat(
          "overlay: edge (%u, %u, type=%u) not present in base", src, dst,
          type));
    }
    removed_.insert(ref);
    ++removed_src_[src];
    ++removed_dst_[dst];
    out_weight_delta_[src] -= base_weight;
    return Status::OK();
  }

  /// Overrides the weight of an existing effective edge (base or added).
  /// Weight-based Why-Not explanations ("you should have rated A with 5
  /// stars", the paper's §7 extension) evaluate candidates through this.
  /// Fails with NotFound when the edge is absent and InvalidArgument on a
  /// non-positive weight.
  [[nodiscard]]
  Status SetWeight(NodeId src, NodeId dst, EdgeTypeId type, double weight) {
    EMIGRE_RETURN_IF_ERROR(MarkEdited("SetWeight", src, dst));
    if (!(weight > 0.0)) {
      return Status::InvalidArgument(
          "overlay SetWeight: weight must be positive");
    }
    // Overlay-added edge: update in place.
    if (auto it = added_out_.find(src); it != added_out_.end()) {
      for (Edge& e : it->second) {
        if (e.node == dst && e.type == type) {
          out_weight_delta_[src] += weight - e.weight;
          e.weight = weight;
          for (Edge& in : added_in_[dst]) {
            if (in.node == src && in.type == type) {
              in.weight = weight;
              break;
            }
          }
          return Status::OK();
        }
      }
    }
    // Base edge: mask the original and overlay a re-weighted copy. The mask +
    // copy pair keeps every traversal path consistent; note a subsequent
    // RemoveEdge erases the copy (leaving the mask), removing the edge
    // entirely, as expected.
    EdgeRef ref{src, dst, type};
    double base_weight = base_->EdgeWeight(src, dst, type);
    if (base_weight <= 0.0 || removed_.count(ref) > 0) {
      return Status::NotFound(StrFormat(
          "overlay SetWeight: edge (%u, %u, type=%u) not present", src, dst,
          type));
    }
    removed_.insert(ref);
    ++removed_src_[src];
    ++removed_dst_[dst];
    added_out_[src].push_back(Edge{dst, type, weight});
    added_in_[dst].push_back(Edge{src, type, weight});
    ++num_added_;
    out_weight_delta_[src] += weight - base_weight;
    return Status::OK();
  }

  /// Drops all edits; the overlay becomes a transparent view again.
  void Clear() {
    for (NodeId n : marked_) edited_[n] = 0;
    marked_.clear();
    removed_.clear();
    removed_src_.clear();
    removed_dst_.clear();
    added_out_.clear();
    added_in_.clear();
    out_weight_delta_.clear();
    num_added_ = 0;
  }

  size_t NumAdded() const { return num_added_; }
  size_t NumRemoved() const { return removed_.size(); }
  bool HasEdits() const { return num_added_ > 0 || !removed_.empty(); }

  /// The current edit sets (for reporting).
  std::vector<EdgeRef> AddedEdges() const {
    std::vector<EdgeRef> out;
    out.reserve(num_added_);
    for (const auto& [src, edges] : added_out_) {
      for (const Edge& e : edges) out.push_back(EdgeRef{src, e.node, e.type});
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  std::vector<EdgeRef> RemovedEdges() const {
    std::vector<EdgeRef> out(removed_.begin(), removed_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  // --- GraphLike interface ----------------------------------------------------

  size_t NumNodes() const { return base_->NumNodes(); }
  NodeTypeId NodeType(NodeId n) const { return base_->NodeType(n); }

  /// Effective out-weight of `n` (base plus overlay delta).
  double OutWeight(NodeId n) const {
    if (!Edited(n)) return base_->OutWeight(n);
    double w = base_->OutWeight(n);
    auto it = out_weight_delta_.find(n);
    if (it != out_weight_delta_.end()) w += it->second;
    return w < 0.0 ? 0.0 : w;
  }

  /// Effective out-degree of `n`.
  size_t OutDegree(NodeId n) const {
    if (!Edited(n)) return base_->OutDegree(n);
    size_t degree = base_->OutDegree(n);
    if (auto it = removed_src_.find(n); it != removed_src_.end()) {
      degree -= it->second;
    }
    if (auto it = added_out_.find(n); it != added_out_.end()) {
      degree += it->second.size();
    }
    return degree;
  }
  size_t InDegree(NodeId n) const {
    if (!Edited(n)) return base_->InDegree(n);
    size_t degree = base_->InDegree(n);
    if (auto it = removed_dst_.find(n); it != removed_dst_.end()) {
      degree -= it->second;
    }
    if (auto it = added_in_.find(n); it != added_in_.end()) {
      degree += it->second.size();
    }
    return degree;
  }

  bool HasEdge(NodeId src, NodeId dst) const {
    bool found = false;
    // No early exit through ForEachOutEdge; scan the base row and stop
    // updating once a surviving edge is seen (out-degrees are small).
    base_->ForEachOutEdge(src, [&](NodeId node, EdgeTypeId type, double) {
      if (!found && node == dst &&
          removed_.count(EdgeRef{src, dst, type}) == 0) {
        found = true;
      }
    });
    if (found) return true;
    if (auto it = added_out_.find(src); it != added_out_.end()) {
      for (const Edge& e : it->second) {
        if (e.node == dst) return true;
      }
    }
    return false;
  }
  bool HasEdge(NodeId src, NodeId dst, EdgeTypeId type) const {
    // A masked base edge may still exist as an overlay copy (SetWeight), so
    // always consult the added list too.
    if (base_->HasEdge(src, dst, type) &&
        removed_.count(EdgeRef{src, dst, type}) == 0) {
      return true;
    }
    if (auto it = added_out_.find(src); it != added_out_.end()) {
      for (const Edge& e : it->second) {
        if (e.node == dst && e.type == type) return true;
      }
    }
    return false;
  }

  template <typename F>
  void ForEachOutEdge(NodeId n, F&& fn) const {
    if (!Edited(n)) {
      base_->ForEachOutEdge(n, fn);
      return;
    }
    if (removed_.empty() || removed_src_.count(n) == 0) {
      base_->ForEachOutEdge(
          n, [&](NodeId dst, EdgeTypeId type, double w) { fn(dst, type, w); });
    } else {
      base_->ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId type, double w) {
        if (removed_.count(EdgeRef{n, dst, type}) == 0) fn(dst, type, w);
      });
    }
    auto it = added_out_.find(n);
    if (it != added_out_.end()) {
      for (const Edge& e : it->second) fn(e.node, e.type, e.weight);
    }
  }

  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    if (!Edited(n)) {
      base_->ForEachInEdge(n, fn);
      return;
    }
    if (removed_.empty() || removed_dst_.count(n) == 0) {
      base_->ForEachInEdge(
          n, [&](NodeId src, EdgeTypeId type, double w) { fn(src, type, w); });
    } else {
      base_->ForEachInEdge(n, [&](NodeId src, EdgeTypeId type, double w) {
        if (removed_.count(EdgeRef{src, n, type}) == 0) fn(src, type, w);
      });
    }
    auto it = added_in_.find(n);
    if (it != added_in_.end()) {
      for (const Edge& e : it->second) fn(e.node, e.type, e.weight);
    }
  }

 private:
  // Range-checks an edit's endpoints and flags both as edited.
  [[nodiscard]] Status MarkEdited(const char* op, NodeId src, NodeId dst) {
    if (!base_->IsValidNode(src) || !base_->IsValidNode(dst) ||
        src >= edited_.size() || dst >= edited_.size()) {
      return Status::InvalidArgument(StrFormat(
          "overlay %s(%u, %u): node out of range", op, src, dst));
    }
    for (NodeId n : {src, dst}) {
      if (!edited_[n]) {
        edited_[n] = 1;
        marked_.push_back(n);
      }
    }
    return Status::OK();
  }

  // True when an edit since the last Clear() touched `n`. Nodes past the
  // flags (added to a mutable base later) can carry no edit.
  bool Edited(NodeId n) const { return n < edited_.size() && edited_[n]; }

  // Removes one (node, type) entry from a vector adjacency list; returns its
  // weight or a negative value when absent.
  static double EraseEntry(std::vector<Edge>* list, NodeId node,
                           EdgeTypeId type) {
    for (auto it = list->begin(); it != list->end(); ++it) {
      if (it->node == node && it->type == type) {
        double w = it->weight;
        list->erase(it);
        return w;
      }
    }
    return -1.0;
  }

  const BaseT* base_;
  // One flag per base node: set on the src/dst of every edit, reset by
  // Clear() from `marked_`, the nodes it set.
  std::vector<char> edited_;
  std::vector<NodeId> marked_;
  std::unordered_set<EdgeRef, EdgeRefHash> removed_;
  // Edited nodes that appear as src/dst of some removed edge: their
  // traversal skips the removed-set probe when they have none.
  std::unordered_map<NodeId, size_t> removed_src_;
  std::unordered_map<NodeId, size_t> removed_dst_;
  std::unordered_map<NodeId, std::vector<Edge>> added_out_;
  std::unordered_map<NodeId, std::vector<Edge>> added_in_;
  std::unordered_map<NodeId, double> out_weight_delta_;
  size_t num_added_ = 0;
};

/// The classic overlay over the mutable in-memory graph.
using GraphOverlay = BasicGraphOverlay<HinGraph>;

}  // namespace emigre::graph

#endif  // EMIGRE_GRAPH_OVERLAY_H_
