// Parallel initial-partitioning engine: determinism sweep, winner
// tie-break rules, stream-mode equivalence, and the FM gain-cache /
// parallel-seeding invariants (ISSUE 5).
//
// Naming note: the InitPart* and Bisection* prefixes are matched by the
// CI ThreadSanitizer job's --gtest_filter, so every test here runs under
// TSan as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "gen/generators.hpp"
#include "mt/mt_context.hpp"
#include "mt/mt_initpart.hpp"
#include "serial/bisection.hpp"
#include "serial/initpart_engine.hpp"
#include "serial/rb_partition.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

std::uint64_t fnv1a(const std::vector<part_t>& where) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(where.data());
  for (std::size_t i = 0; i < where.size() * sizeof(part_t); ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

// --- winner selection: minimum (cut, trial-id), i.e. the first trial
// achieving the minimal cut wins (identical to the historical serial
// "first strictly better" scan, whatever order trials finished in) ---

TEST(InitPartWinner, FirstMinimalCutWins) {
  EXPECT_EQ(initpart_select_winner({5, 3, 3, 7}), 1);
  EXPECT_EQ(initpart_select_winner({4, 4}), 0);
  EXPECT_EQ(initpart_select_winner({9}), 0);
  EXPECT_EQ(initpart_select_winner({2, 1, 0, 0, 1}), 2);
}

TEST(InitPartWinner, TieBreaksByTrialIdNotValueOrder) {
  // All equal: trial 0 must win regardless of how many trials raced.
  EXPECT_EQ(initpart_select_winner({6, 6, 6, 6, 6, 6, 6, 6}), 0);
}

// --- determinism sweep: the mt-mode engine must produce byte-identical
// partitions at any thread count, for any trial count ---

class InitPartDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(InitPartDeterminism, FnvInvariantAcrossThreadCountsAndTrials) {
  const CsrGraph g = make_paper_graph(GetParam(), 0.002, 3);
  ASSERT_GT(g.num_vertices(), 100);
  for (int trials = 1; trials <= 8; ++trials) {
    std::uint64_t ref = 0;
    for (const int th : {1, 2, 4, 8}) {
      ThreadPool pool(th);
      MtContext ctx{&pool, nullptr, 7};
      const Partition p = mt_initial_partition(g, 8, 0.03, ctx, trials);
      EXPECT_TRUE(validate_partition(g, p).empty());
      const std::uint64_t h = fnv1a(p.where);
      if (th == 1) {
        ref = h;
      } else {
        EXPECT_EQ(h, ref) << GetParam() << " trials=" << trials
                          << " threads=" << th
                          << ": partition differs from the 1-thread run";
      }
    }
  }
}

// Instantiation name keeps the InitPart prefix so --gtest_filter=InitPart*
// (the CI TSan job) still matches the parameterized names.
INSTANTIATE_TEST_SUITE_P(InitPartGraphs, InitPartDeterminism,
                         ::testing::Values("delaunay", "ldoor"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(InitPartDeterminism, RepeatedRunsAreBitIdentical) {
  const CsrGraph g = delaunay_graph(1500, 11);
  ThreadPool pool(4);
  MtContext ctx{&pool, nullptr, 5};
  const Partition a = mt_initial_partition(g, 12, 0.03, ctx, 4);
  const Partition b = mt_initial_partition(g, 12, 0.03, ctx, 4);
  EXPECT_EQ(a.where, b.where);
}

TEST(InitPartDeterminism, MoreTrialsNeverHurtTheCut) {
  // Not a byte-equality property: raced trials buy quality.  The winner
  // rule keeps the best cut, so trials=8 <= trials=1 on the same graph.
  const CsrGraph g = delaunay_graph(1200, 3);
  ThreadPool pool(8);
  MtContext ctx{&pool, nullptr, 9};
  const Partition p1 = mt_initial_partition(g, 2, 0.03, ctx, 1);
  const Partition p8 = mt_initial_partition(g, 2, 0.03, ctx, 8);
  EXPECT_LE(edge_cut(g, p8), edge_cut(g, p1));
}

// --- stream mode: the serial drivers' flavour.  The engine must behave
// exactly like the historical depth-first recursion: same partition AND
// the caller's RNG left in the same state, with or without a pool ---

TEST(InitPartStream, PoolDoesNotChangePartitionOrRngState) {
  const CsrGraph g = make_paper_graph("ldoor", 0.002, 5);
  InitPartConfig cfg;
  cfg.k = 8;
  cfg.eps = 0.03;

  Rng rng_serial(42);
  const Partition ps = initpart_engine(g, cfg, &rng_serial);

  ThreadPool pool(4);
  InitPartConfig cfg_pool = cfg;
  cfg_pool.pool = &pool;
  cfg_pool.model_threads = 4;
  Rng rng_pool(42);
  const Partition pp = initpart_engine(g, cfg_pool, &rng_pool);

  EXPECT_EQ(ps.where, pp.where);
  // RNG advanced by the same nominal draw count: subsequent streams agree.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng_serial.next(), rng_pool.next());
  }
}

TEST(InitPartStream, RbPartitionIsTheEngineInStreamMode) {
  const CsrGraph g = delaunay_graph(900, 17);
  Rng rng_a(7);
  RbStats st;
  const Partition a = recursive_bisection(g, 6, 0.03, rng_a, &st, 4, 8);
  EXPECT_GT(st.work_units, 0u);

  InitPartConfig cfg;
  cfg.k = 6;
  cfg.eps = 0.03;
  cfg.trials = 4;
  Rng rng_b(7);
  const Partition b = initpart_engine(g, cfg, &rng_b);
  EXPECT_EQ(a.where, b.where);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng_a.next(), rng_b.next());
  }
}

// --- FM invariants: parallel boundary seeding is byte-identical to the
// serial scan, and the persistent gain cache keeps the tracked cut exact ---

/// Metis' FM_2WayCutRefine move limit for an n-vertex graph.
std::uint64_t fm_move_limit(vid_t n) {
  return std::min<std::uint64_t>(std::max<std::uint64_t>(n / 100, 15), 100);
}

/// Vertices whose side differs: the moves a single FM pass kept, since a
/// pass moves each vertex at most once.
std::uint64_t sides_changed(const std::vector<part_t>& a,
                            const std::vector<part_t>& b) {
  std::uint64_t d = 0;
  for (std::size_t v = 0; v < a.size(); ++v) d += a[v] != b[v];
  return d;
}

wgt_t side0_weight(const CsrGraph& g, const std::vector<part_t>& side) {
  wgt_t w0 = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (side[static_cast<std::size_t>(v)] == 0) w0 += g.vertex_weight(v);
  }
  return w0;
}

/// Refines `bis` serially and with a 4-thread seeding pool; both must
/// agree byte for byte, in the metered work and the move count too.
void expect_pool_fm_matches_serial(const CsrGraph& g,
                                   const BisectionResult& bis, wgt_t min0,
                                   wgt_t max0) {
  ThreadPool pool(4);
  std::vector<part_t> side_serial = bis.side;
  const FmStats fs =
      fm_refine_bisection(g, side_serial, min0, max0, 8, bis.cut);

  std::vector<part_t> side_pool = bis.side;
  std::vector<std::uint64_t> tw(static_cast<std::size_t>(pool.size()), 0);
  const FmStats fp = fm_refine_bisection(g, side_pool, min0, max0, 8,
                                         bis.cut, &pool, &tw);

  EXPECT_EQ(side_serial, side_pool);
  EXPECT_EQ(fs.cut_after, fp.cut_after);
  EXPECT_EQ(fs.passes, fp.passes);
  EXPECT_EQ(fs.moves, fp.moves);
  // Same total metered work, just distributed across the pool.
  EXPECT_EQ(fs.work_units, fp.work_units);
  std::uint64_t par = 0;
  for (const auto w : tw) par += w;
  EXPECT_EQ(par, fp.seed_work);
}

TEST(Bisection, FmPoolSeedingMatchesSerialByteForByte) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SCOPED_TRACE(seed);
    const CsrGraph g = erdos_renyi_graph(800, 4000, seed);
    Rng rng(seed);
    BisectionResult bis =
        gggp_bisect(g, g.total_vertex_weight() / 2, rng, 1);
    const wgt_t maxw = g.total_vertex_weight();
    expect_pool_fm_matches_serial(g, bis, maxw / 2 - maxw / 8,
                                  maxw / 2 + maxw / 8);
  }
  // A 2,000-vertex grid, where the first pass ends at the move limit
  // (every move past the best prefix plus one is never made).
  const CsrGraph g = grid2d_graph(50, 40);
  Rng rng(9);
  BisectionResult bis = gggp_bisect(g, g.total_vertex_weight() / 2, rng, 1);
  const wgt_t maxw = g.total_vertex_weight();
  std::vector<part_t> one = bis.side;
  const FmStats f1 = fm_refine_bisection(g, one, maxw / 2 - maxw / 20,
                                         maxw / 2 + maxw / 20, 1, bis.cut);
  ASSERT_EQ(f1.moves - sides_changed(bis.side, one),
            fm_move_limit(g.num_vertices()) + 1);
  expect_pool_fm_matches_serial(g, bis, maxw / 2 - maxw / 20,
                                maxw / 2 + maxw / 20);
}

TEST(Bisection, FmPassStopsAtMetisLimit) {
  // Without the limit a pass drains its whole heap and rolls back nearly
  // every move on these graphs.  One-pass calls make each pass's kept
  // moves observable as the vertices whose side changed.
  for (const CsrGraph& g : {grid2d_graph(50, 40), delaunay_graph(3000, 7)}) {
    SCOPED_TRACE(g.num_vertices());
    const std::uint64_t limit = fm_move_limit(g.num_vertices());
    const wgt_t maxw = g.total_vertex_weight();
    const wgt_t min0 = maxw / 2 - maxw / 20;
    const wgt_t max0 = maxw / 2 + maxw / 20;
    Rng rng(5);
    BisectionResult bis = gggp_bisect(g, maxw / 2, rng, 1);
    // Starting inside the window, every kept prefix stays inside it.
    ASSERT_GE(bis.weight0, min0);
    ASSERT_LE(bis.weight0, max0);
    std::vector<part_t> side = bis.side;
    wgt_t cut = bis.cut;
    bool fired = false;
    for (int pass = 0; pass < 8; ++pass) {
      const std::vector<part_t> before = side;
      const FmStats fs = fm_refine_bisection(g, side, min0, max0, 1, cut);
      const std::uint64_t kept = sides_changed(before, side);
      ASSERT_GE(fs.moves, kept);
      EXPECT_LE(fs.moves - kept, limit + 1) << "pass " << pass;
      fired |= fs.moves - kept == limit + 1;
      EXPECT_EQ(fs.cut_after, bisection_cut(g, side)) << "pass " << pass;
      EXPECT_GE(side0_weight(g, side), min0);
      EXPECT_LE(side0_weight(g, side), max0);
      cut = fs.cut_after;
      if (kept == 0) break;  // a pass without a new best cut is terminal
    }
    EXPECT_TRUE(fired);
    // Multi-pass: an early-ended pass still leaves the gain cache exact
    // for the next pass's seeding, so the tracked cut stays exact.
    side = bis.side;
    const FmStats fs = fm_refine_bisection(g, side, min0, max0, 8, bis.cut);
    EXPECT_EQ(fs.cut_after, bisection_cut(g, side));
    EXPECT_LE(fs.cut_after, bis.cut);
  }
}

TEST(Bisection, FmTrackedCutStaysExact) {
  // cut_after is tracked via the persistent gain cache through every
  // move and rollback; any cache drift would desynchronize it from the
  // true cut of the refined side.
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL, 15ULL}) {
    const CsrGraph g = rmat_graph(9, 2500, seed);
    Rng rng(seed * 31);
    BisectionResult bis =
        gggp_bisect(g, g.total_vertex_weight() / 2, rng, 2);
    ASSERT_EQ(bis.cut, bisection_cut(g, bis.side));
    const wgt_t maxw = g.total_vertex_weight();
    const FmStats fs = fm_refine_bisection(g, bis.side, maxw / 4,
                                           3 * maxw / 4, 8, bis.cut);
    EXPECT_EQ(fs.cut_after, bisection_cut(g, bis.side)) << "seed " << seed;
    EXPECT_LE(fs.cut_after, fs.cut_before);
  }
}

TEST(Bisection, FmStatsSplitIsConsistent) {
  const CsrGraph g = delaunay_graph(700, 23);
  Rng rng(23);
  BisectionResult bis = gggp_bisect(g, g.total_vertex_weight() / 2, rng, 1);
  const wgt_t maxw = g.total_vertex_weight();
  const FmStats fs = fm_refine_bisection(g, bis.side, maxw / 4, 3 * maxw / 4,
                                         8, bis.cut);
  EXPECT_EQ(fs.seed_work + fs.drain_work, fs.work_units);
  EXPECT_GT(fs.seed_work, 0u);
  EXPECT_GE(fs.passes, 1);
}

}  // namespace
}  // namespace gp
