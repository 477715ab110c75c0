#include "ppr/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "explain/emigre.h"
#include "explain/search_space.h"
#include "obs/metrics.h"
#include "ppr/reverse_push.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::ppr {
namespace {

using graph::HinGraph;
using graph::NodeId;

TEST(ReversePushCacheTest, ReturnsSameValuesAsDirectComputation) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  ReversePushCache<HinGraph> cache(bg.g, opts);

  for (NodeId target : {bg.harry_potter, bg.python, bg.candide}) {
    auto cached = cache.Get(target);
    std::vector<double> direct = ReversePush(bg.g, target, opts).estimate;
    // Sparse entry: stores exactly the nonzero estimates.
    size_t nonzeros = 0;
    for (double v : direct) nonzeros += v != 0.0 ? 1 : 0;
    EXPECT_EQ(cached->size(), nonzeros) << "target " << target;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_DOUBLE_EQ(cached->Get(static_cast<NodeId>(i)), direct[i])
          << "target " << target;
    }
    std::vector<double> densified = cached->ToDense(direct.size());
    EXPECT_EQ(densified, direct) << "target " << target;
  }
}

TEST(ReversePushCacheTest, ResidentBytesAreExactEntrySizes) {
  // Entries carry no slack capacity: the byte accounting (and the resident
  // memory) is exactly what the stored ids and values need.
  Rng rng(17);
  test::RandomHin rh = test::MakeRandomHin(rng, 8, 40, 4, 6);
  constexpr size_t kCapacity = 8;
  ReversePushCache<HinGraph> cache(rh.g, PprOptions{}, kCapacity);
  std::vector<std::shared_ptr<const SparseVector>> filled;
  for (size_t i = 0; i < 12 && i < rh.items.size(); ++i) {
    filled.push_back(cache.Get(rh.items[i]));
  }
  ASSERT_EQ(cache.misses(), filled.size());
  ASSERT_GT(filled.size(), kCapacity);  // some entries were evicted
  // No hit reordered the LRU list, so the last kCapacity fills are resident.
  size_t expected = 0;
  for (size_t i = filled.size() - kCapacity; i < filled.size(); ++i) {
    expected += filled[i]->ids().size() * sizeof(NodeId) +
                filled[i]->values().size() * sizeof(double);
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_EQ(cache.bytes(), expected);
}

TEST(ReversePushCacheTest, BytesTrackResidentEntries) {
  test::BookGraph bg = test::MakeBookGraph();
  ReversePushCache<HinGraph> cache(bg.g, PprOptions{}, /*capacity=*/2);
  EXPECT_EQ(cache.bytes(), 0u);
  auto first = cache.Get(bg.harry_potter);
  EXPECT_EQ(cache.bytes(), first->MemoryBytes());
  auto second = cache.Get(bg.python);
  EXPECT_EQ(cache.bytes(), first->MemoryBytes() + second->MemoryBytes());
  // The resident-bytes gauge tracks the same accounting.
  EXPECT_EQ(obs::Registry::Global().GetGauge("ppr.cache.bytes").Value(),
            static_cast<double>(cache.bytes()));
  // Sparse entries are far smaller than a dense |V| vector would be.
  EXPECT_LT(first->MemoryBytes() / sizeof(double), 2 * bg.g.NumNodes());
  cache.Get(bg.candide);  // evicts harry_potter (capacity 2)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LT(cache.bytes(),
            first->MemoryBytes() + second->MemoryBytes() +
                first->MemoryBytes() + 1);
  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(obs::Registry::Global().GetGauge("ppr.cache.bytes").Value(), 0.0);
}

TEST(ReversePushCacheTest, CountsHitsAndMisses) {
  test::BookGraph bg = test::MakeBookGraph();
  ReversePushCache<HinGraph> cache(bg.g, PprOptions{});
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  cache.Get(bg.python);
  cache.Get(bg.python);
  cache.Get(bg.candide);
  cache.Get(bg.python);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ReversePushCacheTest, EvictsLeastRecentlyUsed) {
  test::BookGraph bg = test::MakeBookGraph();
  ReversePushCache<HinGraph> cache(bg.g, PprOptions{}, /*capacity=*/2);
  cache.Get(bg.harry_potter);
  cache.Get(bg.python);
  cache.Get(bg.harry_potter);  // refresh HP
  cache.Get(bg.candide);       // evicts python (LRU)
  EXPECT_EQ(cache.size(), 2u);
  size_t misses_before = cache.misses();
  cache.Get(bg.harry_potter);  // still resident
  EXPECT_EQ(cache.misses(), misses_before);
  cache.Get(bg.python);  // evicted: recompute
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(ReversePushCacheTest, TouchKeepsASequentialFetchFromEvictingItself) {
  // Resident {python, harry_potter} (python least recent); the fetch reads
  // candide (a miss) and then python.
  test::BookGraph bg = test::MakeBookGraph();
  auto fetch = [&](ReversePushCache<HinGraph>& cache, bool touch) {
    cache.Get(bg.python);
    cache.Get(bg.harry_potter);
    const size_t gets_before =
        cache.hits() + cache.misses() + cache.races();
    const size_t misses_before = cache.misses();
    if (touch) cache.Touch({bg.candide, bg.python});
    EXPECT_EQ(cache.hits() + cache.misses() + cache.races(), gets_before)
        << "Touch counts nothing";
    cache.Get(bg.candide);
    cache.Get(bg.python);
    return cache.misses() - misses_before;
  };
  // Without Touch, installing candide evicts python, which then misses too.
  ReversePushCache<HinGraph> plain(bg.g, PprOptions{}, /*capacity=*/2);
  EXPECT_EQ(fetch(plain, /*touch=*/false), 2u);
  // Touch moves python to the front first, so candide evicts harry_potter.
  ReversePushCache<HinGraph> touched(bg.g, PprOptions{}, /*capacity=*/2);
  EXPECT_EQ(fetch(touched, /*touch=*/true), 1u);
  EXPECT_EQ(touched.hits() + touched.misses() + touched.races(), 4u);
}

TEST(ReversePushCacheTest, SharedPtrSurvivesEviction) {
  test::BookGraph bg = test::MakeBookGraph();
  ReversePushCache<HinGraph> cache(bg.g, PprOptions{}, /*capacity=*/1);
  auto kept = cache.Get(bg.harry_potter);
  cache.Get(bg.python);  // evicts HP
  // The held pointer remains valid and correct.
  std::vector<double> direct =
      ReversePush(bg.g, bg.harry_potter, PprOptions{}).estimate;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(kept->Get(static_cast<NodeId>(i)), direct[i]);
  }
}

TEST(ReversePushCacheTest, ClearEmptiesCache) {
  test::BookGraph bg = test::MakeBookGraph();
  ReversePushCache<HinGraph> cache(bg.g, PprOptions{});
  cache.Get(bg.python);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  size_t misses_before = cache.misses();
  cache.Get(bg.python);
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(ReversePushCacheTest, ConcurrentAccessIsConsistent) {
  Rng rng(404);
  test::RandomHin rh = test::MakeRandomHin(rng, 6, 20, 3, 6);
  PprOptions opts;
  ReversePushCache<HinGraph> cache(rh.g, opts, /*capacity=*/8);

  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng local(1000 + t);
      for (int i = 0; i < 40; ++i) {
        NodeId target = rh.items[local.NextBounded(rh.items.size())];
        auto cached = cache.Get(target);
        std::vector<double> direct =
            ReversePush(rh.g, target, opts).estimate;
        for (size_t k = 0; k < direct.size(); ++k) {
          if (cached->Get(static_cast<NodeId>(k)) != direct[k]) {
            mismatch.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(ReversePushCacheTest, ConcurrentDuplicateFillsCountOneMiss) {
  // Many threads request the SAME cold target at once. All of them miss the
  // first lookup and recompute, but only the installer may count a miss;
  // the losers must surface as races, never as extra misses — and every
  // Get must be exactly one of hit / miss / race.
  test::BookGraph bg = test::MakeBookGraph();
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    ReversePushCache<HinGraph> cache(bg.g, PprOptions{});
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        // Crude start barrier to maximize the duplicate-computation window.
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        auto v = cache.Get(bg.harry_potter);
        EXPECT_FALSE(v->empty());
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(cache.misses(), 1u) << "round " << round;
    EXPECT_EQ(cache.hits() + cache.misses() + cache.races(),
              static_cast<size_t>(kThreads))
        << "round " << round;
    EXPECT_EQ(cache.size(), 1u);
  }
}

TEST(ReversePushCacheTest, RacesStayZeroWhenSingleThreaded) {
  test::BookGraph bg = test::MakeBookGraph();
  ReversePushCache<HinGraph> cache(bg.g, PprOptions{});
  cache.Get(bg.python);
  cache.Get(bg.python);
  cache.Get(bg.candide);
  EXPECT_EQ(cache.races(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ReversePushCacheTest, EmigreResultsUnchangedByCache) {
  // The facade uses the cache internally; its outputs must be identical to
  // bypassing it (search_space called directly, no cache).
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  explain::Emigre engine(f.g, f.opts);

  auto direct_space = explain::BuildRemoveSearchSpace(
      f.g, f.user, engine.CurrentRanking(f.user).Top(), f.wni, f.opts,
      nullptr);
  ASSERT_TRUE(direct_space.ok());

  auto r1 = engine.Explain(explain::WhyNotQuestion{f.user, f.wni},
                           explain::Mode::kRemove,
                           explain::Heuristic::kPowerset);
  auto r2 = engine.Explain(explain::WhyNotQuestion{f.user, f.wni},
                           explain::Mode::kRemove,
                           explain::Heuristic::kPowerset);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->found, r2->found);
  EXPECT_EQ(r1->edges, r2->edges);
  // The second identical question hit the cache.
  EXPECT_GT(engine.ppr_cache().hits(), 0u);
}

}  // namespace
}  // namespace emigre::ppr
