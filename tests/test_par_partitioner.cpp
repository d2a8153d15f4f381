// Tests for src/par: the simulated message-passing layer and the
// ParMetis-like distributed partitioner.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/matching.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "par/comm.hpp"
#include "par/parmetis_partitioner.hpp"

namespace gp {
namespace {

TEST(SimComm, MessagesDeliverNextSuperstep) {
  ThreadPool pool(4);
  SimComm comm(4, pool, nullptr);
  // Superstep 1: rank r sends {r*10} to rank (r+1)%4.
  comm.superstep("send", [&](int r, Mailbox& mb) -> std::uint64_t {
    EXPECT_TRUE(mb.inbox().empty());
    mb.send((r + 1) % 4, std::vector<int>{r * 10});
    return 1;
  });
  // Superstep 2: each rank sees exactly the message from its predecessor.
  comm.superstep("recv", [&](int r, Mailbox& mb) -> std::uint64_t {
    EXPECT_EQ(mb.inbox().size(), 1u);
    const auto data = mb.inbox()[0].as<int>();
    EXPECT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0], ((r + 3) % 4) * 10);
    EXPECT_EQ(mb.inbox()[0].from, (r + 3) % 4);
    return 1;
  });
  EXPECT_EQ(comm.supersteps(), 2u);
}

TEST(SimComm, MessagesDeliveredExactlyOnce) {
  ThreadPool pool(3);
  SimComm comm(3, pool, nullptr);
  comm.superstep("send", [&](int r, Mailbox& mb) -> std::uint64_t {
    for (int dst = 0; dst < 3; ++dst) {
      if (dst != r) mb.send(dst, std::vector<int>{r});
    }
    return 1;
  });
  std::atomic<int> received{0};
  comm.superstep("recv", [&](int, Mailbox& mb) -> std::uint64_t {
    received += static_cast<int>(mb.inbox().size());
    return 1;
  });
  EXPECT_EQ(received.load(), 6);
  // Next superstep: inboxes are empty again (no re-delivery).
  comm.superstep("idle", [&](int, Mailbox& mb) -> std::uint64_t {
    EXPECT_TRUE(mb.inbox().empty());
    return 1;
  });
}

TEST(SimComm, LedgerChargedPerSuperstep) {
  ThreadPool pool(2);
  CostLedger ledger;
  SimComm comm(2, pool, &ledger);
  comm.superstep("w", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 0) mb.send(1, std::vector<double>(100, 1.0));
    return 1000;
  });
  EXPECT_GT(ledger.seconds_with_prefix("compute/w"), 0.0);
  EXPECT_EQ(ledger.bytes_with_prefix("comm/w"), 800u);
}

TEST(SimComm, PodRoundTrip) {
  struct Pod {
    int a;
    double b;
  };
  ThreadPool pool(2);
  SimComm comm(2, pool, nullptr);
  comm.superstep("send", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 0) mb.send(1, std::vector<Pod>{{1, 2.5}, {3, 4.5}});
    return 1;
  });
  comm.superstep("recv", [&](int r, Mailbox& mb) -> std::uint64_t {
    if (r == 1) {
      const auto v = mb.inbox()[0].as<Pod>();
      EXPECT_EQ(v.size(), 2u);
      EXPECT_EQ(v[0].a, 1);
      EXPECT_DOUBLE_EQ(v[1].b, 4.5);
    }
    return 1;
  });
}

class ParRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParRanks, FullPipelineValid) {
  const auto g = delaunay_graph(5000, 3);
  PartitionOptions opts;
  opts.k = 8;
  opts.ranks = GetParam();
  const auto r = ParMetisPartitioner().run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition).empty())
      << validate_partition(g, r.partition);
  EXPECT_EQ(r.cut, edge_cut(g, r.partition));
  for (const auto w : partition_weights(g, r.partition)) EXPECT_GT(w, 0);
  EXPECT_LE(r.balance, 1.35);
  EXPECT_GT(r.coarsen_levels, 1);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParRanks, ::testing::Values(1, 2, 4, 8));

TEST(ParDriver, QualityComparableToSerial) {
  const auto g = grid2d_graph(64, 64);
  PartitionOptions opts;
  opts.k = 8;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto par = ParMetisPartitioner().run(g, opts);
  EXPECT_LT(static_cast<double>(par.cut),
            1.7 * static_cast<double>(serial.cut) + 50.0);
}

TEST(ParDriver, CommCostsAreCharged) {
  const auto g = delaunay_graph(4000, 5);
  PartitionOptions opts;
  opts.k = 8;
  opts.ranks = 8;
  const auto r = ParMetisPartitioner().run(g, opts);
  // A distributed run must have metered ghost exchanges, match requests,
  // and the initial-partitioning broadcast.
  EXPECT_GT(r.ledger.seconds_with_prefix("comm/"), 0.0);
  EXPECT_GT(r.ledger.bytes_with_prefix("comm/ghost/"), 0u);
  EXPECT_GT(r.ledger.bytes_with_prefix("comm/initpart/broadcast"), 0u);
}

TEST(ParDriver, SingleRankHasNoPointToPointTraffic) {
  const auto g = grid2d_graph(40, 40);
  PartitionOptions opts;
  opts.k = 4;
  opts.ranks = 1;
  const auto r = ParMetisPartitioner().run(g, opts);
  EXPECT_TRUE(validate_partition(g, r.partition).empty());
  // With one rank there are no remote neighbours, hence no ghost bytes.
  EXPECT_EQ(r.ledger.bytes_with_prefix("comm/ghost/"), 0u);
}

TEST(ParDriver, ModeledSlowerThanMtButFasterThanSerial) {
  // Fig. 5's ordering: ParMetis beats serial Metis but loses to mt-metis
  // (message overhead).  A road network makes the gap structural — its
  // enormous boundary-to-size ratio keeps the ghost exchanges expensive.
  const auto g = road_network_graph(120000, 11);
  PartitionOptions opts;
  opts.k = 16;
  const auto serial = make_serial_partitioner()->run(g, opts);
  const auto par = ParMetisPartitioner().run(g, opts);
  const auto mt = make_mt_partitioner()->run(g, opts);
  EXPECT_LT(par.modeled_seconds, serial.modeled_seconds);
  EXPECT_GT(par.modeled_seconds, mt.modeled_seconds);
}

/// Level of a `comm/ghost/<kind>/L<i>[/p<j>]` row, or -1 for other rows.
int ghost_row_level(const std::string& label) {
  const std::string prefix = "comm/ghost/";
  if (label.rfind(prefix, 0) != 0) return -1;
  const std::size_t at = label.find("/L", prefix.size());
  if (at == std::string::npos) return -1;
  std::size_t end = at + 2;
  while (end < label.size() && label[end] >= '0' && label[end] <= '9') ++end;
  if (end == at + 2 || (end < label.size() && label[end] != '/')) return -1;
  return std::stoi(label.substr(at + 2, end - at - 2));
}

/// K_{3,2m} with hubs numbered first, plus a weight-2 edge joining leaves
/// 2i and 2i+1.  Level 0 contracts the leaf pairs; the coarse leaves then
/// hang off the three hubs with degree 3, beyond two-hop matching, so HEM
/// merges at most three of them and level 1 stalls whatever the ranks do.
CsrGraph paired_hub_graph(vid_t m) {
  constexpr vid_t kHubs = 3;
  GraphBuilder b(kHubs + 2 * m);
  for (vid_t l = kHubs; l < kHubs + 2 * m; ++l) {
    for (vid_t h = 0; h < kHubs; ++h) b.add_edge(h, l);
    if ((l - kHubs) % 2 == 1) b.add_edge(l - 1, l, 2);
  }
  return b.build();
}

TEST(ParDriver, GhostChargesMatchRecount) {
  // The hub graph stalls on level 1, so its coarsest level shares the
  // census of its last coarsening pass; the Delaunay graph reaches the
  // target, so its coarsest census is taken fresh at the start of
  // uncoarsening.
  struct Case {
    const char* name;
    CsrGraph g;
    bool stalls;
  };
  const Case cases[] = {{"hubs", paired_hub_graph(1500), true},
                        {"delaunay", delaunay_graph(6000, 4), false}};
  for (const Case& c : cases) {
    for (const int P : {2, 4, 8}) {
      SCOPED_TRACE(std::string(c.name) + " ranks=" + std::to_string(P));
      PartitionOptions opts;
      opts.k = 8;
      opts.ranks = P;
      const auto r = ParMetisPartitioner().run(c.g, opts);
      ASSERT_TRUE(validate_partition(c.g, r.partition).empty());
      EXPECT_EQ(r.coarsest_vertices > opts.coarsen_target(), c.stalls)
          << "coarsest " << r.coarsest_vertices;

      // Level 0 is the input graph under the block distribution, whatever
      // the racy matching does: recount its boundary census here.
      const vid_t n = c.g.num_vertices();
      std::uint64_t max_items = 0, max_msgs = 0;
      for (int rank = 0; rank < P; ++rank) {
        const vid_t lo = static_cast<vid_t>(std::int64_t{n} * rank / P);
        const vid_t hi = static_cast<vid_t>(std::int64_t{n} * (rank + 1) / P);
        std::set<int> dests;
        std::uint64_t items = 0;
        for (vid_t v = lo; v < hi; ++v) {
          bool boundary = false;
          for (const vid_t u : c.g.neighbors(v)) {
            if (u >= lo && u < hi) continue;
            boundary = true;
            for (int o = 0; o < P; ++o) {
              if (u < static_cast<vid_t>(std::int64_t{n} * (o + 1) / P)) {
                dests.insert(o);
                break;
              }
            }
          }
          if (boundary) ++items;
        }
        max_items = std::max(max_items, items);
        max_msgs = std::max<std::uint64_t>(max_msgs, dests.size());
      }
      ASSERT_GT(max_items, 0u);
      static_assert(sizeof(vid_t) == 4 && sizeof(part_t) == 4);
      CostLedger expect;
      expect.charge_messages("l0", max_msgs, max_items * 4);
      const double l0_seconds = expect.entries().front().seconds;

      // Level -> distinct (bytes, seconds) charges; seconds carry the
      // message count.
      std::map<int, std::set<std::pair<std::uint64_t, double>>> by_level;
      std::set<std::string> l0_kinds;
      for (const CostEntry& e : r.ledger.entries()) {
        const int lvl = ghost_row_level(e.label);
        if (lvl < 0) continue;
        by_level[lvl].insert({e.bytes, e.seconds});
        if (lvl != 0) continue;
        const std::size_t kind_at = std::string("comm/ghost/").size();
        l0_kinds.insert(e.label.substr(kind_at, e.label.find('/', kind_at) -
                                                    kind_at));
        EXPECT_EQ(e.bytes, max_items * 4) << e.label;
        EXPECT_DOUBLE_EQ(e.seconds, l0_seconds) << e.label;
      }
      EXPECT_EQ(l0_kinds, (std::set<std::string>{"cmap", "matchstate",
                                                 "project", "where"}));
      // Every level from the input graph down to the coarsest charged
      // exchanges, each level from a single census.
      ASSERT_EQ(by_level.size(),
                static_cast<std::size_t>(r.coarsen_levels) + 1);
      for (const auto& [lvl, charges] : by_level) {
        EXPECT_EQ(charges.size(), 1u) << "level " << lvl;
      }
    }
  }
}

TEST(ParDriver, RoadGraphReachesCoarseningTarget) {
  // Intersections are numbered first, so the block distribution leaves
  // chain vertices whose only neighbours are remote hubs: without two-hop
  // matching, coarsening stalls near 10x the target.
  const auto g = road_network_graph(20000, 7);
  for (const int P : {1, 2, 4, 8}) {
    SCOPED_TRACE("ranks=" + std::to_string(P));
    PartitionOptions opts;
    opts.k = 8;
    opts.ranks = P;
    const auto r = ParMetisPartitioner().run(g, opts);
    ASSERT_TRUE(validate_partition(g, r.partition).empty());
    EXPECT_LE(r.coarsest_vertices, 2 * opts.coarsen_target());
    const wgt_t cap =
        max_part_weight(g.total_vertex_weight(), opts.k, opts.eps);
    for (const wgt_t w : partition_weights(g, r.partition)) EXPECT_LE(w, cap);
  }
}

TEST(ParDriver, CappedHierarchyDrainsOverweightParts) {
  // Single-rank road runs (deterministic) whose initial partition leaves
  // a part overweight by more than any neighbour has room for: the
  // coarsest vertices weigh up to 5% of a part.  With only the strict
  // max_pw rule each ends 1-15 vertices over its bound.
  struct Case {
    std::uint64_t graph_seed;
    part_t k;
    std::uint64_t seed;
    double eps;
  };
  for (const Case& c : {Case{20, 16, 2, 0.01}, Case{17, 32, 4, 0.01},
                        Case{28, 128, 1, 0.02}}) {
    SCOPED_TRACE("graph seed " + std::to_string(c.graph_seed));
    const auto g = road_network_graph(30000, c.graph_seed);
    PartitionOptions opts;
    opts.k = c.k;
    opts.seed = c.seed;
    opts.eps = c.eps;
    opts.ranks = 1;
    const auto r = ParMetisPartitioner().run(g, opts);
    ASSERT_TRUE(validate_partition(g, r.partition).empty());
    const wgt_t cap = max_part_weight(g.total_vertex_weight(), c.k, c.eps);
    for (const wgt_t w : partition_weights(g, r.partition)) EXPECT_LE(w, cap);
  }
}

TEST(ParDriver, FactoryName) {
  EXPECT_EQ(make_par_partitioner()->name(), "parmetis");
}

TEST(ParFolding, ValidAndComparableQuality) {
  const auto g = delaunay_graph(12000, 6);
  PartitionOptions opts;
  opts.k = 8;
  opts.ranks = 8;
  const auto plain = ParMetisPartitioner().run(g, opts);
  opts.par_fold_threshold = 4000;
  const auto folded = ParMetisPartitioner().run(g, opts);
  EXPECT_TRUE(validate_partition(g, folded.partition).empty());
  // Folding's replicated best-of-P coarsening should stay within a
  // reasonable band of the plain pipeline's quality.
  EXPECT_LT(static_cast<double>(folded.cut),
            1.4 * static_cast<double>(plain.cut) + 50.0);
}

TEST(ParFolding, RemovesLateGhostRounds) {
  const auto g = road_network_graph(40000, 3);
  PartitionOptions opts;
  opts.k = 16;
  opts.ranks = 8;
  const auto plain = ParMetisPartitioner().run(g, opts);
  opts.par_fold_threshold = 20000;  // fold early
  const auto folded = ParMetisPartitioner().run(g, opts);
  // Folding trades coarsening-phase messages for one broadcast: the
  // match/ghost byte volume in the coarsening phase must drop.
  const auto coarsen_comm_bytes = [](const PartitionResult& r) {
    return r.ledger.bytes_with_prefix("comm/ghost/matchstate") +
           r.ledger.bytes_with_prefix("comm/coarsen/");
  };
  EXPECT_LT(coarsen_comm_bytes(folded), coarsen_comm_bytes(plain));
  EXPECT_TRUE(validate_partition(g, folded.partition).empty());
}

}  // namespace
}  // namespace gp
