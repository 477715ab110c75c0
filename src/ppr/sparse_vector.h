#ifndef EMIGRE_PPR_SPARSE_VECTOR_H_
#define EMIGRE_PPR_SPARSE_VECTOR_H_

#include <algorithm>
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

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_SPARSE_VECTOR_H_
