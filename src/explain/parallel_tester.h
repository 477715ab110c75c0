#ifndef EMIGRE_EXPLAIN_PARALLEL_TESTER_H_
#define EMIGRE_EXPLAIN_PARALLEL_TESTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "explain/tester.h"
#include "util/thread_pool.h"

namespace emigre::explain {

/// \brief Parallel TEST engine: fans candidate verification across threads.
///
/// The paper's runtime profile (Table 5, §6.3) is dominated by TEST calls,
/// and §5.3 points at cheaper per-candidate verification as the lever.
/// Candidate overlays are independent — each tester owns its overlay (and,
/// for the fast tester, its dynamic-push state) — so a batch of candidates
/// is embarrassingly parallel. This class owns one tester per worker
/// thread, created lazily by a caller-supplied factory, and distributes a
/// batch over an internal `ThreadPool`. Each worker thus holds its own
/// overlay and push workspace — mutable push state is never shared — while
/// all workers read the same immutable CSR snapshot.
///
/// Determinism contract (docs/parallelism.md):
///  - The accepted candidate is the *lowest-index* success in batch order,
///    identical to a serial front-to-back scan. Workers cooperate through an
///    atomic "best index so far": a candidate above the current best is
///    skipped (counted as cancelled), candidates below it are still tested
///    so an earlier success can displace a later one.
///  - The TEST-count budget is evaluated against the candidate's batch
///    index (what a serial scan would have consumed), not the live shared
///    counter, so parallel and serial runs stop at the same boundary.
///  - `num_tests()` aggregates every worker's TESTs through one atomic, so
///    `QueryRecorder` diagnostics agree with the per-thread testers by
///    construction.
///
/// Wall-clock deadlines remain time-based and can therefore fire at
/// different candidates than a serial run — same as two serial runs on a
/// loaded machine.
///
/// Thread-safety: one ParallelTester serves one search at a time; the
/// serial `Test`/`TestMixed` entry points and `TestBatch` must not be
/// called concurrently with each other. `TestBatch` enforces its half of
/// the contract at runtime: overlapping batches (from two threads, or a
/// batch recursing into itself) abort via `EMIGRE_CHECK` instead of
/// silently sharing the per-slot testers.
class ParallelTester : public TesterInterface {
 public:
  using Factory = std::function<std::unique_ptr<TesterInterface>()>;

  /// `num_threads`: 1 = serial in the calling thread (no pool);
  /// 0 = hardware concurrency. The slot-0 tester is created eagerly (it
  /// answers `IsExact`); the other worker testers are created on first use,
  /// each inside its own worker, so graph copies do not serialize.
  ParallelTester(Factory factory, size_t num_threads);
  ~ParallelTester() override;

  ParallelTester(const ParallelTester&) = delete;
  ParallelTester& operator=(const ParallelTester&) = delete;

  // Single-candidate TESTs (the Incremental heuristic's path) run on the
  // slot-0 tester in the calling thread.
  bool Test(const std::vector<graph::EdgeRef>& edits, Mode mode,
            graph::NodeId* new_rec = nullptr) override;
  bool TestMixed(const std::vector<ModedEdit>& edits,
                 graph::NodeId* new_rec = nullptr) override;

  /// Total TESTs across all worker testers.
  size_t num_tests() const override {
    return num_tests_.load(std::memory_order_relaxed);
  }
  bool IsExact() const override { return exact_; }

  BatchResult TestBatch(const std::vector<std::vector<graph::EdgeRef>>& batch,
                        Mode mode, const BudgetFn& budget = nullptr) override;

  /// Worker count (1 = serial).
  size_t num_threads() const { return num_threads_; }

 private:
  /// The per-thread tester of worker `slot`, created on first use.
  TesterInterface& SlotTester(size_t slot);

  Factory factory_;
  size_t num_threads_;
  bool exact_;
  std::vector<std::unique_ptr<TesterInterface>> testers_;  // one per slot
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads_ == 1
  std::atomic<size_t> num_tests_{0};
  /// True while a `TestBatch` is in flight — the runtime form of the
  /// one-search-at-a-time contract above.
  std::atomic<bool> batch_active_{false};
};

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_PARALLEL_TESTER_H_
