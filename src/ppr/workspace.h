#ifndef EMIGRE_PPR_WORKSPACE_H_
#define EMIGRE_PPR_WORKSPACE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
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

/// \brief Reusable sparse state for local-push computations.
///
/// The static FIFO pushes (`ForwardPush`/`ReversePush`) zero-fill dense
/// arrays of size |V| per call — cheap when a push touches most of the
/// graph, which static pushes at the CLI's ε do. Repairs and the kFast
/// kernels touch far fewer nodes, so they keep their state here, reusable
/// at O(k) for a push touching k nodes:
///
///  - **Epoch-stamped values.** `estimate_`/`residual_` stay dirty between
///    calls; a per-node stamp records the epoch that last wrote it. `Begin`
///    bumps the epoch (O(1)); the first touch of a node in an epoch lazily
///    resets its two values and records it on the touched list.
///  - **Ring-buffer frontier.** A flat power-of-two ring with an
///    epoch-stamped "queued" flag per node. `DynamicForwardPush`'s sparse
///    refine runs its FIFO schedule on it (through `PushHotView`) without
///    allocation.
///
/// After warm-up (the arrays reached graph size once), `Begin` performs no
/// O(|V|) work — `stats().dense_resets` counts the O(|V|) growth events so
/// benches can assert exactly that.
///
/// The kFast engine uses the same ring as a **bucketed priority
/// frontier** (`PriorityPush`/`PriorityPop`) that pops an approximately
/// highest-residual node first, which converts large mass to estimate
/// early and lets small residuals converge below threshold without ever
/// being pushed — fewer pushes than FIFO on push-bound workloads. To keep
/// the per-edge cost identical to the FIFO ring (the priority structure
/// must not eat its own savings), the frontier is a *threshold sweep*:
///
/// The priority key is **cost-normalized**: key = |residual| / cost, where
/// cost is the degree the eventual push will pay (out-degree forward,
/// in-degree reverse). Raw-residual order is a trap on skewed-degree
/// graphs — hubs accumulate mass fastest, surface first, and get re-popped
/// every band, so the push count drops but *edge work rises*. Keying on
/// converted-mass-per-relaxed-edge makes hubs wait and accumulate while
/// cheap nodes clear, which is what actually reduces edge traffic.
///
/// The frontier runs in *rounds*. Round L has a key threshold τ (a power
/// of two anchored 16 binary orders below ε, so sub-ε keys of high-degree
/// nodes still discriminate); the shared FIFO ring holds the round's work,
/// and 64 exponent buckets hold everything smaller:
///
///  - **At-or-above τ: plain FIFO.** `PriorityPush` with magnitude ≥
///    τ·cost is exactly a ring enqueue — one multiply and compare over the
///    FIFO engines on the hot edge path, no division. That single test is
///    also the *promotion* test: a previously-small node crossing τ via an
///    incoming push enters the current round immediately, so a growing
///    residual is never processed late (the failure mode that makes
///    cruder schemes re-push converged regions).
///  - **Below τ·cost: file once.** The node is filed into the bucket of
///    its key's binary exponent (one division and bit-extract, once per
///    activation, not per edge) and not touched again until its round —
///    re-relaxations of a filed node cost one stamp check.
///  - **Round turnover.** When the ring drains, `PriorityPop` moves the
///    highest occupied bucket into the ring, sets τ to that bucket's lower
///    bound, and continues; filings during the round always land strictly
///    below τ, so every node with key ≥ τ runs in FIFO order within its
///    band before any smaller one.
///
/// A node promoted by the τ test leaves one stale bucket entry behind; the
/// turnover sweep discards it via the defer stamp and the recorded bucket.
/// Only one frontier mode (FIFO or priority) may be used per epoch — they
/// share the ring and the queued flags.
///
/// A workspace serves one push at a time and is not thread-safe; testers own
/// one each, giving one workspace per worker thread under `ParallelTester`.
class PushWorkspace {
  friend class PushHotView;
  friend class PushPriorityView;

 public:
  struct Stats {
    /// `Begin` calls (one per push).
    size_t begins = 0;
    /// O(|V|)-cost array growth/clear events. Stable after warm-up.
    size_t dense_resets = 0;
    /// Total nodes touched across all pushes (the Σ k the sparse reset
    /// actually paid for, vs. begins * |V| for a dense reset).
    size_t touched_total = 0;
  };

  /// Starts a new push over an `n`-node graph. O(1) after warm-up.
  void Begin(size_t n) {
    ++stats_.begins;
    stats_.touched_total += touched_.size();
    if (n > stamp_.size()) Grow(n);
    touched_.clear();
    frontier_head_ = 0;
    frontier_count_ = 0;
    if (epoch_ == UINT32_MAX) {
      // Stamp wrap: one rare O(|V|) clear keeps stale stamps from aliasing.
      ++stats_.dense_resets;
      std::fill(stamp_.begin(), stamp_.end(), 0);
      std::fill(queued_stamp_.begin(), queued_stamp_.end(), 0);
      std::fill(defer_stamp_.begin(), defer_stamp_.end(), 0);
      std::fill(mark_stamp_.begin(), mark_stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  size_t size() const { return stamp_.size(); }
  const Stats& stats() const { return stats_; }

  // --- Epoch-stamped estimate / residual ------------------------------------
  // Written by the kFast kernels through `PushPriorityView`.

  double Estimate(graph::NodeId v) const {
    return stamp_[v] == epoch_ ? estimate_[v] : 0.0;
  }
  double Residual(graph::NodeId v) const {
    return stamp_[v] == epoch_ ? residual_[v] : 0.0;
  }

  /// Nodes touched this epoch, in first-touch order.
  const std::vector<graph::NodeId>& touched() const { return touched_; }

  /// True when `v` is on `touched()` (touched this epoch).
  bool Touched(graph::NodeId v) const { return stamp_[v] == epoch_; }

  /// First-touch index of `v` on the touched list this epoch (maintained
  /// by `PushPriorityView::Touch`/`TouchSlot`).
  uint32_t SlotOf(graph::NodeId v) const { return slot_[v]; }

  /// True when `v` is currently in the ring frontier (this epoch).
  bool InFrontier(graph::NodeId v) const {
    return queued_stamp_[v] == epoch_;
  }

  // --- Priority frontier (kFast) --------------------------------------------
  // Threshold-sweep approximate max-queue over residual magnitudes; see the
  // class comment. Shares the ring and the epoch-stamped queued flag with
  // the FIFO frontier, so a single epoch must use one frontier mode only.

  static constexpr int kPriorityBuckets = 64;

  /// Reserved key range below ε: a node whose key (|r|/cost) is under ε —
  /// a large residual on a very high degree node — still files into a
  /// discriminating bucket instead of collapsing into bucket 0.
  static constexpr int kPriorityFloorShift = 16;

  /// Arms the priority frontier for this epoch. `epsilon` anchors the
  /// bucket scale: keys at or below ε/2^16 share the bottom bucket (they
  /// pop last and are usually discarded as converged).
  void PriorityBegin(double epsilon) {
    if (pri_buckets_.empty()) {
      pri_buckets_.resize(kPriorityBuckets);  // NOLINT(dense-reset): 64 rows
    }
    for (auto& bucket : pri_buckets_) bucket.clear();
    int floor = BiasedExponent(epsilon > 0.0 ? epsilon : 5e-324);
    pri_floor_ = floor > kPriorityFloorShift ? floor - kPriorityFloorShift : 0;
    pri_top_ = -1;
    pri_tau_ = std::numeric_limits<double>::infinity();  // file everything
  }

  /// Enqueues `v` with priority key `magnitude / cost` (|residual| over
  /// the degree its push will pay). At or above the current round's τ this
  /// is exactly a ring enqueue (the promotion path for previously-filed
  /// nodes included) and the division never runs; below it the node is
  /// filed into its key's bucket, once.
  void PriorityPush(graph::NodeId v, double magnitude, double cost = 1.0) {
    if (magnitude >= pri_tau_ * cost) {
      if (queued_stamp_[v] == epoch_) return;
      FrontierPush(v);
      return;
    }
    if (defer_stamp_[v] == epoch_) return;
    defer_stamp_[v] = epoch_;
    int b = BucketOf(magnitude / cost, pri_floor_);
    pri_bucket_of_[v] = static_cast<uint8_t>(b);
    pri_buckets_[static_cast<size_t>(b)].push_back(v);
    if (b > pri_top_) pri_top_ = b;
  }

  /// Pops the next node of the current round (FIFO within the ring);
  /// `graph::kInvalidNode` once ring and buckets drain. When the ring
  /// empties, turns the round over: moves the highest occupied bucket into
  /// the ring and lowers τ to that bucket's floor.
  graph::NodeId PriorityPop() {
    for (;;) {
      if (frontier_count_ > 0) {
        graph::NodeId v = frontier_buf_[frontier_head_];
        frontier_head_ = (frontier_head_ + 1) & (frontier_buf_.size() - 1);
        --frontier_count_;
        queued_stamp_[v] = 0;
        defer_stamp_[v] = 0;
        return v;
      }
      while (pri_top_ >= 0 &&
             pri_buckets_[static_cast<size_t>(pri_top_)].empty()) {
        --pri_top_;
      }
      if (pri_top_ < 0) return graph::kInvalidNode;
      int level = pri_top_;
      pri_tau_ = BucketFloorValue(pri_floor_ + level);
      auto& bucket = pri_buckets_[static_cast<size_t>(level)];
      for (graph::NodeId v : bucket) {
        // Skip stale entries: promoted to the ring in an earlier round, or
        // re-filed into a different bucket since.
        if (defer_stamp_[v] != epoch_ ||
            pri_bucket_of_[v] != static_cast<uint8_t>(level) ||
            queued_stamp_[v] == epoch_) {
          continue;
        }
        FrontierPush(v);
      }
      bucket.clear();
      --pri_top_;
    }
  }

  // --- Epoch-stamped node marks ---------------------------------------------
  // An independent scratch bitset (e.g. "items the user interacted with")
  // with the same O(touched) reset discipline. Valid until the next Begin.

  void Mark(graph::NodeId v) { mark_stamp_[v] = epoch_; }
  bool Marked(graph::NodeId v) const { return mark_stamp_[v] == epoch_; }

  // --- Exports ---------------------------------------------------------------

  /// Copies the touched entries into a compacted `SparseVector` (estimates
  /// only), dropping exact zeros and sized exactly. O(k log k) for the id
  /// sort.
  SparseVector ExportSparseEstimates() const {
    size_t nonzeros = 0;
    for (graph::NodeId v : touched_) {
      if (estimate_[v] != 0.0) ++nonzeros;
    }
    std::vector<graph::NodeId> ids;
    ids.reserve(nonzeros);
    for (graph::NodeId v : touched_) {
      if (estimate_[v] != 0.0) ids.push_back(v);
    }
    std::sort(ids.begin(), ids.end());
    std::vector<double> values(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) values[i] = estimate_[ids[i]];
    return SparseVector(std::move(ids), std::move(values));
  }

  // --- Dense scratch buffers -------------------------------------------------
  // Reused storage for the batched reverse kernel's per-column rows. The
  // caller owns the contents; the buffer is only guaranteed to have size
  // `n`, not any particular values. References are stable across later
  // DenseBuffer calls (buffers are heap-boxed).

  std::vector<double>& DenseBuffer(size_t slot, size_t n) {
    if (slot >= dense_buffers_.size()) {
      dense_buffers_.resize(slot + 1);  // NOLINT(dense-reset): O(slots) table
    }
    if (dense_buffers_[slot] == nullptr) {
      dense_buffers_[slot] = std::make_unique<std::vector<double>>();
    }
    std::vector<double>& buf = *dense_buffers_[slot];
    if (buf.size() < n) buf.resize(n);  // NOLINT(dense-reset): scratch growth
    return buf;
  }

 private:
  void Grow(size_t n) {
    ++stats_.dense_resets;
    stamp_.resize(n, 0);          // NOLINT(dense-reset): warm-up growth
    queued_stamp_.resize(n, 0);   // NOLINT(dense-reset): warm-up growth
    defer_stamp_.resize(n, 0);    // NOLINT(dense-reset): warm-up growth
    mark_stamp_.resize(n, 0);     // NOLINT(dense-reset): warm-up growth
    estimate_.resize(n, 0.0);     // NOLINT(dense-reset): warm-up growth
    residual_.resize(n, 0.0);     // NOLINT(dense-reset): warm-up growth
    slot_.resize(n, 0);           // NOLINT(dense-reset): warm-up growth
    pri_bucket_of_.resize(n, 0);  // NOLINT(dense-reset): warm-up growth
    if (frontier_buf_.empty()) {
      frontier_buf_.resize(64);  // NOLINT(dense-reset): fixed initial ring
    }
  }

  /// Biased IEEE-754 exponent of `m` — a 3-instruction `ilogb` substitute
  /// (bit copy, shift, mask; the sign bit is masked away so the magnitude's
  /// exponent comes out for negative keys too). Zero and subnormals map to
  /// 0, far below any ε floor, which is exactly the "converged" bucket.
  static int BiasedExponent(double m) {
    uint64_t bits;
    std::memcpy(&bits, &m, sizeof(bits));
    return static_cast<int>((bits >> 52) & 0x7FF);
  }

  /// Bucket of a priority key: its binary exponent above the ε `floor`,
  /// clamped to the bucket range.
  static int BucketOf(double key, int floor) {
    int b = BiasedExponent(key) - floor;
    if (b < 0) return 0;
    if (b >= kPriorityBuckets) return kPriorityBuckets - 1;
    return b;
  }

  /// The double 2^(biased_exponent − 1023): the smallest magnitude whose
  /// biased exponent is `biased_exponent`, i.e. the floor of that bucket.
  static double BucketFloorValue(int biased_exponent) {
    uint64_t bits = static_cast<uint64_t>(biased_exponent) << 52;
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
  }

  /// Ring enqueue; the caller checks the queued flag first.
  void FrontierPush(graph::NodeId v) {
    if (frontier_count_ == frontier_buf_.size()) GrowFrontier();
    frontier_buf_[(frontier_head_ + frontier_count_) &
                  (frontier_buf_.size() - 1)] = v;
    ++frontier_count_;
    queued_stamp_[v] = epoch_;
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
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> queued_stamp_;
  std::vector<uint32_t> mark_stamp_;
  std::vector<double> estimate_;
  std::vector<double> residual_;
  std::vector<graph::NodeId> touched_;

  std::vector<graph::NodeId> frontier_buf_;  // power-of-two ring
  size_t frontier_head_ = 0;
  size_t frontier_count_ = 0;

  std::vector<std::vector<graph::NodeId>> pri_buckets_;
  std::vector<uint8_t> pri_bucket_of_;  // filed bucket (stale-entry check)
  std::vector<uint32_t> defer_stamp_;   // epoch when filed sub-τ
  std::vector<uint32_t> slot_;
  int pri_floor_ = 0;
  int pri_top_ = -1;     // highest occupied bucket (hint; filing raises it)
  double pri_tau_ = 0.0;  // current round's magnitude threshold

  std::vector<std::unique_ptr<std::vector<double>>> dense_buffers_;

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

/// \brief Raw-pointer view for the kFast kernels: the priority-frontier
/// analogue of `PushHotView`.
///
/// Arms the workspace's threshold-sweep priority frontier on construction
/// and exposes a Touch/EstimateRef/ResidualRef fast path over raw array
/// bases, plus the ring cursor (owned while the view is alive, written back
/// in the destructor). `Touch` also maintains the per-node slot
/// (first-touch index) — the batched reverse kernel addresses its column
/// rows by slot.
///
/// Construct only after `Begin(n)` sized the arrays; one view per epoch,
/// and do not mix with the FIFO frontier in the same epoch (both share
/// ring and queued flags). The round threshold τ is cached in the view —
/// the hot `Push` path costs one double compare over `PushHotView`'s.
class PushPriorityView {
 public:
  PushPriorityView(PushWorkspace& ws, double epsilon)
      : ws_(ws),
        stamp_(ws.stamp_.data()),
        queued_(ws.queued_stamp_.data()),
        defer_(ws.defer_stamp_.data()),
        bucket_of_(ws.pri_bucket_of_.data()),
        slot_(ws.slot_.data()),
        estimate_(ws.estimate_.data()),
        residual_(ws.residual_.data()),
        epoch_(ws.epoch_) {
    ws.PriorityBegin(epsilon);
    tau_ = ws.pri_tau_;
    if (ws.frontier_buf_.empty()) ws.GrowFrontier();
    fbuf_ = ws.frontier_buf_.data();
    fmask_ = ws.frontier_buf_.size() - 1;
    fhead_ = ws.frontier_head_;
    fcount_ = ws.frontier_count_;
  }

  ~PushPriorityView() {
    ws_.frontier_head_ = fhead_;
    ws_.frontier_count_ = fcount_;
    ws_.pri_tau_ = tau_;
  }

  PushPriorityView(const PushPriorityView&) = delete;
  PushPriorityView& operator=(const PushPriorityView&) = delete;

  /// Lazily zeroes (estimate, residual) of `v` on first touch this epoch
  /// and records its slot on the touched list.
  void Touch(graph::NodeId v) {
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      estimate_[v] = 0.0;
      residual_[v] = 0.0;
      slot_[v] = static_cast<uint32_t>(ws_.touched_.size());
      ws_.touched_.push_back(v);
    }
  }

  double& EstimateRef(graph::NodeId v) { return estimate_[v]; }
  double& ResidualRef(graph::NodeId v) { return residual_[v]; }
  uint32_t SlotOf(graph::NodeId v) const { return slot_[v]; }

  /// `Touch` for kernels that keep per-node values in their own
  /// slot-indexed rows (the batched reverse kernel): records the slot and
  /// returns it, leaving the workspace's estimate/residual of `v` stale.
  uint32_t TouchSlot(graph::NodeId v) {
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      slot_[v] = static_cast<uint32_t>(ws_.touched_.size());
      ws_.touched_.push_back(v);
    }
    return slot_[v];
  }

  /// True while `v` sits in the current round's ring. Callers check this
  /// BEFORE computing the enqueue threshold/cost: a ring-resident node
  /// re-reads its residual at pop time, so nothing needs to happen on
  /// further relaxations — and skipping early avoids the degree load (a
  /// cold adjacency-header access) on the hottest edge path.
  bool InRing(graph::NodeId v) const { return queued_[v] == epoch_; }

  /// See PushWorkspace::PriorityPush: ring enqueue when the key
  /// `magnitude / cost` is at or above τ (one multiply, no division; also
  /// the promotion path), one-time bucket filing below it.
  void Push(graph::NodeId v, double magnitude, double cost) {
    if (magnitude >= tau_ * cost) {
      if (queued_[v] == epoch_) return;
      queued_[v] = epoch_;
      RingPush(v);
      return;
    }
    if (defer_[v] == epoch_) return;
    defer_[v] = epoch_;
    int b = PushWorkspace::BucketOf(magnitude / cost, ws_.pri_floor_);
    bucket_of_[v] = static_cast<uint8_t>(b);
    ws_.pri_buckets_[static_cast<size_t>(b)].push_back(v);
    if (b > ws_.pri_top_) ws_.pri_top_ = b;
  }

  /// See PushWorkspace::PriorityPop (FIFO within the round; turnover moves
  /// the highest occupied bucket into the ring and lowers τ).
  graph::NodeId Pop() {
    for (;;) {
      if (fcount_ > 0) {
        graph::NodeId v = fbuf_[fhead_];
        fhead_ = (fhead_ + 1) & fmask_;
        --fcount_;
        queued_[v] = 0;
        defer_[v] = 0;
        return v;
      }
      while (ws_.pri_top_ >= 0 &&
             ws_.pri_buckets_[static_cast<size_t>(ws_.pri_top_)].empty()) {
        --ws_.pri_top_;
      }
      if (ws_.pri_top_ < 0) return graph::kInvalidNode;
      int level = ws_.pri_top_;
      tau_ = PushWorkspace::BucketFloorValue(ws_.pri_floor_ + level);
      auto& bucket = ws_.pri_buckets_[static_cast<size_t>(level)];
      for (graph::NodeId v : bucket) {
        if (defer_[v] != epoch_ ||
            bucket_of_[v] != static_cast<uint8_t>(level) ||
            queued_[v] == epoch_) {
          continue;  // stale: promoted, popped, or re-filed since
        }
        queued_[v] = epoch_;
        RingPush(v);
      }
      bucket.clear();
      --ws_.pri_top_;
    }
  }

 private:
  void RingPush(graph::NodeId v) {
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
  }

  PushWorkspace& ws_;
  uint32_t* stamp_;
  uint32_t* queued_;
  uint32_t* defer_;
  uint8_t* bucket_of_;
  uint32_t* slot_;
  double* estimate_;
  double* residual_;
  uint32_t epoch_;
  double tau_ = 0.0;

  graph::NodeId* fbuf_ = nullptr;  // ring cursor, written back in the dtor
  size_t fmask_ = 0;
  size_t fhead_ = 0;
  size_t fcount_ = 0;
};

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_WORKSPACE_H_
