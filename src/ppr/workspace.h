#ifndef EMIGRE_PPR_WORKSPACE_H_
#define EMIGRE_PPR_WORKSPACE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace emigre::ppr {

/// \brief A compacted sparse PPR vector: (node, value) pairs sorted by node.
///
/// Local-push results touch O(Σ pushes) nodes, not O(|V|); storing the
/// dense estimate vector wastes memory linear in graph size per cached
/// target. `SparseVector` keeps only the touched entries — the
/// `ReversePushCache` stores these, and callers that need whole-graph
/// indexing expand once with `ToDense`.
class SparseVector {
 public:
  SparseVector() = default;

  /// Takes ownership of parallel (id, value) arrays. `ids` must be sorted
  /// ascending and unique; entries with value 0.0 are kept as-is (callers
  /// compact before handing over).
  SparseVector(std::vector<graph::NodeId> ids, std::vector<double> values)
      : ids_(std::move(ids)), values_(std::move(values)) {}

  /// Number of stored (non-zero) entries.
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Value at `node`, 0.0 when absent. O(log size).
  double Get(graph::NodeId node) const {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), node);
    if (it == ids_.end() || *it != node) return 0.0;
    return values_[static_cast<size_t>(it - ids_.begin())];
  }

  /// Compacts the non-zero entries of `dense`. The arrays are sized
  /// exactly (non-zeros counted first), so a resident cache entry carries
  /// no slack capacity.
  static SparseVector FromDense(const std::vector<double>& dense) {
    size_t nonzeros = 0;
    for (double v : dense) nonzeros += v != 0.0 ? 1 : 0;
    std::vector<graph::NodeId> ids(nonzeros);
    std::vector<double> values(nonzeros);
    size_t k = 0;
    for (size_t i = 0; i < dense.size(); ++i) {
      if (dense[i] == 0.0) continue;
      ids[k] = static_cast<graph::NodeId>(i);
      values[k] = dense[i];
      ++k;
    }
    return SparseVector(std::move(ids), std::move(values));
  }

  /// Expands into a dense vector over `n` nodes (zeros elsewhere).
  std::vector<double> ToDense(size_t n) const {
    std::vector<double> out(n, 0.0);
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] < n) out[ids_[i]] = values_[i];
    }
    return out;
  }

  /// Heap bytes held by this vector (the `ppr.cache.bytes` accounting).
  size_t MemoryBytes() const {
    return ids_.capacity() * sizeof(graph::NodeId) +
           values_.capacity() * sizeof(double);
  }

  const std::vector<graph::NodeId>& ids() const { return ids_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<graph::NodeId> ids_;
  std::vector<double> values_;
};

/// \brief Reusable sparse state for `DynamicForwardPush`'s sparse refine.
///
/// The static FIFO pushes (`ForwardPush`/`ReversePush`) zero-fill dense
/// arrays of size |V| per call — cheap when a push touches most of the
/// graph, which static pushes at the CLI's ε do. A repair touches far fewer
/// nodes, so its frontier lives here, reusable at O(k) for a refine that
/// queues k nodes:
///
///  - **Ring-buffer frontier.** A flat power-of-two ring with an
///    epoch-stamped "queued" flag per node. The sparse refine runs its FIFO
///    schedule on it (through `PushHotView`) without allocation.
///  - **Epoch-stamped node marks.** A scratch bitset with the same O(1)
///    reset (the dynamic tester marks the user's out-neighbors).
///
/// `Begin` bumps the epoch, which clears both in O(1). After warm-up (the
/// arrays reached graph size once), `Begin` performs no O(|V|) work —
/// `stats().dense_resets` counts the O(|V|) growth events so benches can
/// assert exactly that.
///
/// A workspace serves one push at a time and is not thread-safe; testers own
/// one each, giving one workspace per worker thread under `ParallelTester`.
class PushWorkspace {
  friend class PushHotView;

 public:
  struct Stats {
    /// `Begin` calls (one per refine).
    size_t begins = 0;
    /// O(|V|)-cost array growth/clear events. Stable after warm-up.
    size_t dense_resets = 0;
  };

  /// Starts a new push over an `n`-node graph. O(1) after warm-up.
  void Begin(size_t n) {
    ++stats_.begins;
    if (n > queued_stamp_.size()) Grow(n);
    frontier_head_ = 0;
    frontier_count_ = 0;
    if (epoch_ == UINT32_MAX) {
      // Stamp wrap: one rare O(|V|) clear keeps stale stamps from aliasing.
      ++stats_.dense_resets;
      std::fill(queued_stamp_.begin(), queued_stamp_.end(), 0);
      std::fill(mark_stamp_.begin(), mark_stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  const Stats& stats() const { return stats_; }

  // --- Epoch-stamped node marks ---------------------------------------------
  // Valid until the next Begin.

  void Mark(graph::NodeId v) { mark_stamp_[v] = epoch_; }
  bool Marked(graph::NodeId v) const { return mark_stamp_[v] == epoch_; }

 private:
  void Grow(size_t n) {
    ++stats_.dense_resets;
    queued_stamp_.resize(n, 0);  // NOLINT(dense-reset): warm-up growth
    mark_stamp_.resize(n, 0);    // NOLINT(dense-reset): warm-up growth
    if (frontier_buf_.empty()) {
      frontier_buf_.resize(64);  // NOLINT(dense-reset): fixed initial ring
    }
  }

  void GrowFrontier() {
    // Double and linearize: ring contents move to the front of the new
    // buffer in FIFO order.
    size_t old_cap = frontier_buf_.size();
    std::vector<graph::NodeId> bigger(old_cap == 0 ? 64 : old_cap * 2);
    for (size_t i = 0; i < frontier_count_; ++i) {
      bigger[i] = frontier_buf_[(frontier_head_ + i) & (old_cap - 1)];
    }
    frontier_buf_ = std::move(bigger);
    frontier_head_ = 0;
  }

  uint32_t epoch_ = 0;
  std::vector<uint32_t> queued_stamp_;
  std::vector<uint32_t> mark_stamp_;

  std::vector<graph::NodeId> frontier_buf_;  // power-of-two ring
  size_t frontier_head_ = 0;
  size_t frontier_count_ = 0;

  Stats stats_;
};

/// \brief Raw-pointer view of a workspace's FIFO ring frontier, for
/// `DynamicForwardPush`'s sparse refine loop.
///
/// The queued-flag base, the epoch and the ring cursor are loaded ONCE at
/// construction instead of re-read through the workspace reference on every
/// relaxed edge (the compiler cannot hoist them past the stores the push
/// loop makes).
///
/// Construct only after `Begin(n)` sized the arrays for this graph. The
/// view owns the frontier cursor while alive — do not touch the
/// workspace's frontier or start a new `Begin` until it is destroyed (the
/// destructor writes the cursor back).
class PushHotView {
 public:
  explicit PushHotView(PushWorkspace& ws)
      : ws_(ws), queued_(ws.queued_stamp_.data()), epoch_(ws.epoch_) {
    if (ws.frontier_buf_.empty()) ws.GrowFrontier();
    fbuf_ = ws.frontier_buf_.data();
    fmask_ = ws.frontier_buf_.size() - 1;
    fhead_ = ws.frontier_head_;
    fcount_ = ws.frontier_count_;
  }

  ~PushHotView() {
    ws_.frontier_head_ = fhead_;
    ws_.frontier_count_ = fcount_;
  }

  PushHotView(const PushHotView&) = delete;
  PushHotView& operator=(const PushHotView&) = delete;

  bool InFrontier(graph::NodeId v) const { return queued_[v] == epoch_; }
  bool FrontierEmpty() const { return fcount_ == 0; }

  void FrontierPush(graph::NodeId v) {
    if (fcount_ == fmask_ + 1) {
      ws_.frontier_head_ = fhead_;
      ws_.frontier_count_ = fcount_;
      ws_.GrowFrontier();
      fbuf_ = ws_.frontier_buf_.data();
      fmask_ = ws_.frontier_buf_.size() - 1;
      fhead_ = 0;
    }
    fbuf_[(fhead_ + fcount_) & fmask_] = v;
    ++fcount_;
    queued_[v] = epoch_;
  }

  graph::NodeId FrontierPop() {
    graph::NodeId v = fbuf_[fhead_];
    fhead_ = (fhead_ + 1) & fmask_;
    --fcount_;
    queued_[v] = 0;
    return v;
  }

 private:
  PushWorkspace& ws_;
  uint32_t* queued_;
  uint32_t epoch_;

  graph::NodeId* fbuf_ = nullptr;  // ring cursor, written back in the dtor
  size_t fmask_ = 0;
  size_t fhead_ = 0;
  size_t fcount_ = 0;
};

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_WORKSPACE_H_
