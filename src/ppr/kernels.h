#ifndef EMIGRE_PPR_KERNELS_H_
#define EMIGRE_PPR_KERNELS_H_

#include "fault/fault.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/forward_push.h"
#include "ppr/options.h"
#include "ppr/workspace.h"
#include "util/timer.h"

namespace emigre::ppr {

/// \brief Scalar outputs of a kernel push; the vectors live in the workspace.
struct KernelResult {
  size_t pushes = 0;
  /// Signed residual sum, maintained incrementally (no O(n) scan).
  double residual_mass = 0.0;
};

/// \brief Forward Local Push, best-residual-per-edge-first
/// (`PushEngine::kFast`).
///
/// Same per-push arithmetic as `ForwardPush`, different schedule: a
/// bucketed priority frontier (`PushPriorityView`) pops an approximately
/// largest residual-per-out-edge first. Normalizing by the push's edge cost
/// matters on skewed-degree graphs: raw-residual order surfaces hubs every
/// band and re-scans their adjacency repeatedly, while r/deg order lets
/// hubs accumulate mass and clears cheap nodes early, so small residuals
/// often fall below the ε·deg threshold before they are ever popped —
/// less edge work than the FIFO order on push-bound graphs.
/// Deliberately NOT bitwise identical to the FIFO `ForwardPush`: the
/// float-summation order changes, so estimates differ within the Eq. 3
/// tolerance. `check::ValidateForwardPushInvariant` is the correctness
/// oracle for this engine (it is schedule-independent), and the converged
/// state satisfies the same per-node bound residual(v) < ε·max(deg(v),1).
template <graph::GraphLike G>
KernelResult ForwardPushKernelFast(const G& g, graph::NodeId source,
                                   const PprOptions& opts,
                                   PushWorkspace& ws) {
  EMIGRE_SPAN("flp.fast");
  EMIGRE_FAULT_POINT("ppr.flp.fast");
  const size_t n = g.NumNodes();
  ws.Begin(n);
  KernelResult out;
  if (source >= n) return out;
  PushPriorityView pq(ws, opts.epsilon);

  auto out_cost = [&](graph::NodeId u) {
    size_t deg = g.OutDegree(u);
    return static_cast<double>(deg > 0 ? deg : 1);
  };

  pq.Touch(source);
  pq.ResidualRef(source) = 1.0;
  out.residual_mass = 1.0;
  pq.Push(source, 1.0, out_cost(source));

  for (graph::NodeId u; (u = pq.Pop()) != graph::kInvalidNode;) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, out.pushes)) throw DeadlineExceededError();
    double r = pq.ResidualRef(u);
    // Defensive re-check: forward residuals only grow while queued, so a
    // queued node stays above threshold — but a guard here keeps the loop
    // robust to future signed-residual callers.
    if (r < opts.epsilon * out_cost(u)) continue;
    pq.ResidualRef(u) = 0.0;
    out.residual_mass -= r;
    ++out.pushes;

    double out_w = g.OutWeight(u);
    if (out_w <= 0.0) {
      // Dangling node: see ForwardPush — the whole residual converts.
      pq.EstimateRef(u) += r;
      continue;
    }
    pq.EstimateRef(u) += opts.alpha * r;
    double spread = (1.0 - opts.alpha) * r / out_w;
    g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      pq.Touch(v);
      double rv = pq.ResidualRef(v) + spread * w;
      pq.ResidualRef(v) = rv;
      out.residual_mass += spread * w;
      if (pq.InRing(v)) return;  // re-read at pop; skip the degree load
      double deg = out_cost(v);
      if (rv >= opts.epsilon * deg) pq.Push(v, rv, deg);
    });
  }

  EMIGRE_COUNTER("ppr.flp.fast.calls").Increment();
  EMIGRE_COUNTER("ppr.flp.fast.pushes").Increment(out.pushes);
  return out;
}

/// \brief Reverse Local Push, best-residual-per-edge-first
/// (`PushEngine::kFast`).
///
/// Priority-scheduled `ReversePush` with the same schedule-freedom
/// contract as `ForwardPushKernelFast`; `check::ValidateReversePushInvariant`
/// (Eq. 4) is the oracle. Unlike the forward kernel the priority key is
/// the RAW residual (cost = 1), not residual / in-degree: reverse mass
/// flows hub → many low-degree sources, and deferring a high-in-degree
/// node releases its accumulated mass late into regions that already
/// converged, re-activating them (measured slower and more total pushes).
/// Flooding hubs early lets downstream converge once.
/// `ws.Estimate(s)` ≈ PPR(s, target) after the call.
template <graph::GraphLike G>
KernelResult ReversePushKernelFast(const G& g, graph::NodeId target,
                                   const PprOptions& opts,
                                   PushWorkspace& ws) {
  EMIGRE_SPAN("rlp.fast");
  EMIGRE_FAULT_POINT("ppr.rlp.fast");
  const size_t n = g.NumNodes();
  ws.Begin(n);
  KernelResult out;
  if (target >= n) return out;
  PushPriorityView pq(ws, opts.epsilon);

  pq.Touch(target);
  pq.ResidualRef(target) = 1.0;
  out.residual_mass = 1.0;
  pq.Push(target, 1.0, 1.0);

  for (graph::NodeId v; (v = pq.Pop()) != graph::kInvalidNode;) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, out.pushes)) throw DeadlineExceededError();
    double r = pq.ResidualRef(v);
    if (r < opts.epsilon) continue;  // defensive, see ForwardPushKernelFast
    pq.ResidualRef(v) = 0.0;
    out.residual_mass -= r;
    ++out.pushes;

    bool dangling = g.OutWeight(v) <= 0.0;
    if (dangling) {
      // Geometric series of self-pushes: see ReversePush.
      pq.EstimateRef(v) += r;
      r /= opts.alpha;
    } else {
      pq.EstimateRef(v) += opts.alpha * r;
    }

    double spread = (1.0 - opts.alpha) * r;
    g.ForEachInEdge(v, [&](graph::NodeId u, graph::EdgeTypeId, double w) {
      double out_w = g.OutWeight(u);
      if (out_w <= 0.0) return;  // u unreachable as a walk step into v
      pq.Touch(u);
      double ru = pq.ResidualRef(u) + spread * w / out_w;
      pq.ResidualRef(u) = ru;
      out.residual_mass += spread * w / out_w;
      if (ru >= opts.epsilon) pq.Push(u, ru, 1.0);
    });
  }

  EMIGRE_COUNTER("ppr.rlp.fast.calls").Increment();
  EMIGRE_COUNTER("ppr.rlp.fast.pushes").Increment(out.pushes);
  return out;
}

/// \brief Scalar outputs of a batched reverse push.
struct BatchPushStats {
  /// Shared-traversal frontier pops (each may push several columns).
  size_t node_pops = 0;
  /// Per-column push operations — comparable to the per-target `pushes`
  /// of the single-target engines summed over the batch.
  size_t column_pushes = 0;
};

/// \brief Batched multi-target Reverse Local Push (`PushEngine::kFast`).
///
/// Maintains one reverse-PPR column per target in `targets` through a
/// SINGLE shared traversal: each touched node carries a B-wide row of
/// (estimate, residual) values addressed by its workspace slot, and one
/// in-edge scan of a popped node spreads the residuals of every
/// above-threshold column at once. For T targets over a shared frontier
/// this amortizes the adjacency traffic that T independent pushes would
/// repeat — the PRINCE-style sharing the TEST loop's repeated
/// PPR(·, target) derivations call for.
///
/// Column c of the returned vector is the compacted estimate vector for
/// `targets[c]`, exactly what `ReversePushCache` stores per target. Each
/// column independently satisfies the Eq. 4 invariant (residual(s) < ε for
/// every s); pass `dense_out` to export full per-column `PushResult` states
/// for the validators. Schedule-free like the other kFast kernels: columns
/// are NOT bitwise identical to single-target pushes. The column rows are
/// the only per-node state the batch writes: `ws.Estimate`/`ws.Residual`
/// mean nothing after it.
template <graph::GraphLike G>
std::vector<SparseVector> ReversePushBatchKernel(
    const G& g, const std::vector<graph::NodeId>& targets,
    const PprOptions& opts, PushWorkspace& ws,
    BatchPushStats* stats = nullptr,
    std::vector<PushResult>* dense_out = nullptr) {
  EMIGRE_SPAN("rlp.fast.batch");
  EMIGRE_FAULT_POINT("ppr.rlp.fast.batch");
  const size_t n = g.NumNodes();
  const size_t B = targets.size();
  ws.Begin(n);
  std::vector<SparseVector> out(B);
  if (B == 0) return out;
  PushPriorityView pq(ws, opts.epsilon);

  // Column rows live in reusable dense buffers, addressed slot*B + c and
  // zeroed on first touch. Slots are append-only and `resize` preserves
  // contents, so growing capacity never moves a row relative to its slot.
  size_t row_cap = 64;
  std::vector<double>& est_rows = ws.DenseBuffer(6, row_cap * B);
  std::vector<double>& res_rows = ws.DenseBuffer(7, row_cap * B);
  size_t rows_ready = 0;
  auto touch_row = [&](graph::NodeId v) -> size_t {
    size_t slot = pq.TouchSlot(v);
    if (slot >= rows_ready) {
      if (slot >= row_cap) {
        while (row_cap <= slot) row_cap *= 2;
        ws.DenseBuffer(6, row_cap * B);
        ws.DenseBuffer(7, row_cap * B);
      }
      std::fill(est_rows.begin() + static_cast<ptrdiff_t>(slot * B),
                est_rows.begin() + static_cast<ptrdiff_t>((slot + 1) * B),
                0.0);
      std::fill(res_rows.begin() + static_cast<ptrdiff_t>(slot * B),
                res_rows.begin() + static_cast<ptrdiff_t>((slot + 1) * B),
                0.0);
      rows_ready = slot + 1;
    }
    return slot;
  };

  std::vector<double> residual_mass(B, 0.0);
  for (size_t c = 0; c < B; ++c) {
    graph::NodeId t = targets[c];
    if (t >= n) continue;
    size_t slot = touch_row(t);
    res_rows[slot * B + c] += 1.0;
    residual_mass[c] += 1.0;
    // Raw-residual key (cost = 1): see ReversePushKernelFast.
    pq.Push(t, res_rows[slot * B + c], 1.0);
  }

  std::vector<double> spread(B, 0.0);
  std::vector<uint32_t> active(B, 0);
  size_t node_pops = 0;
  size_t column_pushes = 0;
  for (graph::NodeId v; (v = pq.Pop()) != graph::kInvalidNode;) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, node_pops)) throw DeadlineExceededError();
    ++node_pops;
    size_t vslot = pq.SlotOf(v);
    double* vres = &res_rows[vslot * B];
    double* vest = &est_rows[vslot * B];
    bool dangling = g.OutWeight(v) <= 0.0;
    size_t n_active = 0;
    for (size_t c = 0; c < B; ++c) {
      double r = vres[c];
      if (r < opts.epsilon) continue;
      vres[c] = 0.0;
      residual_mass[c] -= r;
      if (dangling) {
        // Geometric series of self-pushes: see ReversePush.
        vest[c] += r;
        r /= opts.alpha;
      } else {
        vest[c] += opts.alpha * r;
      }
      spread[n_active] = (1.0 - opts.alpha) * r;
      active[n_active] = static_cast<uint32_t>(c);
      ++n_active;
    }
    if (n_active == 0) continue;  // every column converged since queueing
    column_pushes += n_active;
    g.ForEachInEdge(v, [&](graph::NodeId u, graph::EdgeTypeId, double w) {
      double out_w = g.OutWeight(u);
      if (out_w <= 0.0) return;  // u unreachable as a walk step into v
      double factor = w / out_w;
      size_t uslot = touch_row(u);
      double* ures = &res_rows[uslot * B];
      double max_r = 0.0;
      for (size_t i = 0; i < n_active; ++i) {
        size_t c = active[i];
        double delta = spread[i] * factor;
        double ru = ures[c] + delta;
        ures[c] = ru;
        residual_mass[c] += delta;
        if (ru > max_r) max_r = ru;
      }
      if (max_r >= opts.epsilon) pq.Push(u, max_r, 1.0);
    });
  }

  if (stats != nullptr) {
    stats->node_pops = node_pops;
    stats->column_pushes = column_pushes;
  }
  EMIGRE_COUNTER("ppr.rlp.fast.batch.calls").Increment();
  EMIGRE_COUNTER("ppr.rlp.fast.batch.targets").Increment(B);
  EMIGRE_COUNTER("ppr.rlp.fast.batch.pops").Increment(node_pops);
  EMIGRE_COUNTER("ppr.rlp.fast.batch.column_pushes")
      .Increment(column_pushes);

  // Compact the columns in ONE pass over the touched rows in node-id
  // order, each column sized exactly (non-zeros counted first). A push that
  // touched at least 1/16 of the graph finds that order by sweeping the
  // node ids (O(n) stamp reads, no sort); a smaller one sorts its touched
  // ids once.
  const std::vector<graph::NodeId>& touched = ws.touched();
  std::vector<std::vector<graph::NodeId>> ids(B);
  std::vector<std::vector<double>> values(B);
  {
    std::vector<size_t> nonzeros(B, 0);
    for (size_t s = 0; s < touched.size(); ++s) {
      for (size_t c = 0; c < B; ++c) {
        if (est_rows[s * B + c] != 0.0) ++nonzeros[c];
      }
    }
    for (size_t c = 0; c < B; ++c) {
      ids[c].reserve(nonzeros[c]);
      values[c].reserve(nonzeros[c]);
    }
  }
  auto emit_row = [&](graph::NodeId v) {
    const double* row = &est_rows[ws.SlotOf(v) * B];
    for (size_t c = 0; c < B; ++c) {
      if (row[c] == 0.0) continue;
      ids[c].push_back(v);
      values[c].push_back(row[c]);
    }
  };
  if (touched.size() * 16 >= n) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (ws.Touched(v)) emit_row(v);
    }
  } else {
    std::vector<graph::NodeId> order(touched);
    std::sort(order.begin(), order.end());
    for (graph::NodeId v : order) emit_row(v);
  }
  for (size_t c = 0; c < B; ++c) {
    out[c] = SparseVector(std::move(ids[c]), std::move(values[c]));
  }
  if (dense_out != nullptr) {
    dense_out->clear();
    dense_out->resize(B);
    for (size_t c = 0; c < B; ++c) {
      PushResult& pr = (*dense_out)[c];
      pr.estimate.assign(n, 0.0);  // NOLINT(dense-reset): validator export
      pr.residual.assign(n, 0.0);  // NOLINT(dense-reset): validator export
      for (size_t s = 0; s < touched.size(); ++s) {
        pr.estimate[touched[s]] = est_rows[s * B + c];
        pr.residual[touched[s]] = res_rows[s * B + c];
      }
      pr.residual_mass = residual_mass[c];
    }
  }
  return out;
}

/// \brief Expands the workspace state of the last single-target kFast push
/// into a dense `PushResult` (for the Eq. 3/4 validators and the one-off
/// kFast initial state of `DynamicForwardPush`). O(n) — not for hot loops.
inline PushResult ExportDensePush(const PushWorkspace& ws, size_t n,
                                  double residual_mass) {
  PushResult out;
  out.estimate.assign(n, 0.0);  // NOLINT(dense-reset): one-off dense export
  out.residual.assign(n, 0.0);  // NOLINT(dense-reset): one-off dense export
  for (graph::NodeId v : ws.touched()) {
    out.estimate[v] = ws.Estimate(v);
    out.residual[v] = ws.Residual(v);
  }
  out.residual_mass = residual_mass;
  return out;
}

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_KERNELS_H_
