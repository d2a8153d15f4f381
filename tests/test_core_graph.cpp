// Unit tests for src/core: CSR graph, builder, partition metrics, graph ops,
// matching/cmap/contraction reference implementations.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/csr_graph.hpp"
#include "core/graph_ops.hpp"
#include "core/matching.hpp"
#include "core/partition.hpp"
#include "util/rng.hpp"

namespace gp {
namespace {

/// Path graph 0-1-2-...-(n-1), unit weights.
CsrGraph make_path(vid_t n) {
  GraphBuilder b(n);
  for (vid_t v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

/// Complete graph K_n.
CsrGraph make_complete(vid_t n) {
  GraphBuilder b(n);
  for (vid_t u = 0; u < n; ++u)
    for (vid_t v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

TEST(GraphBuilder, BuildsValidPath) {
  const auto g = make_path(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.num_arcs(), 8);
  EXPECT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
}

TEST(GraphBuilder, MergesDuplicateEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);  // duplicate, reversed
  b.add_edge(1, 2, 1);
  const auto g = b.build();
  EXPECT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.neighbor_weights(0)[0], 5);  // 2 + 3 merged
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0, 7);
  b.add_edge(0, 1, 1);
  const auto g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.validate().empty());
}

TEST(GraphBuilder, VertexWeights) {
  GraphBuilder b(2);
  b.set_vertex_weight(0, 10);
  b.add_edge(0, 1);
  const auto g = b.build();
  EXPECT_EQ(g.vertex_weight(0), 10);
  EXPECT_EQ(g.vertex_weight(1), 1);
  EXPECT_EQ(g.total_vertex_weight(), 11);
}

TEST(CsrGraph, ValidateCatchesAsymmetry) {
  // Hand-built broken graph: arc 0->1 but no 1->0.
  CsrGraph g({0, 1, 1}, {1}, {1}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
}

TEST(CsrGraph, ValidateCatchesOutOfRange) {
  CsrGraph g({0, 1, 2}, {5, 0}, {1, 1}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
}

TEST(CsrGraph, EmptyGraphIsValid) {
  CsrGraph g({0}, {}, {}, {});
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.num_vertices(), 0);
}

TEST(PartitionMetrics, EdgeCutOnPath) {
  const auto g = make_path(4);  // edges {0,1},{1,2},{2,3}
  Partition p{2, {0, 0, 1, 1}};
  EXPECT_EQ(edge_cut(g, p), 1);
  Partition q{2, {0, 1, 0, 1}};
  EXPECT_EQ(edge_cut(g, q), 3);
}

TEST(PartitionMetrics, WeightsAndBalance) {
  const auto g = make_path(4);
  Partition p{2, {0, 0, 1, 1}};
  const auto w = partition_weights(g, p);
  EXPECT_EQ(w[0], 2);
  EXPECT_EQ(w[1], 2);
  EXPECT_DOUBLE_EQ(partition_balance(g, p), 1.0);
  Partition q{2, {0, 0, 0, 1}};
  EXPECT_DOUBLE_EQ(partition_balance(g, q), 1.5);
}

TEST(PartitionMetrics, CommunicationVolumeAndBoundary) {
  const auto g = make_path(4);
  Partition p{2, {0, 0, 1, 1}};
  EXPECT_EQ(communication_volume(g, p), 2);  // vertices 1 and 2
  EXPECT_EQ(boundary_size(g, p), 2);
}

TEST(PartitionMetrics, ValidatePartition) {
  const auto g = make_path(3);
  Partition ok{2, {0, 1, 1}};
  EXPECT_TRUE(validate_partition(g, ok).empty());
  Partition bad_size{2, {0, 1}};
  EXPECT_FALSE(validate_partition(g, bad_size).empty());
  Partition bad_range{2, {0, 1, 2}};
  EXPECT_FALSE(validate_partition(g, bad_range).empty());
}

TEST(PartitionMetrics, RepairEmptyParts) {
  const auto g = make_path(6);
  Partition p{3, {0, 0, 0, 0, 0, 0}};  // parts 1 and 2 empty
  const int repairs = repair_empty_parts(g, p);
  EXPECT_EQ(repairs, 2);
  EXPECT_TRUE(validate_partition(g, p).empty());
  auto pw = partition_weights(g, p);
  for (const auto w : pw) EXPECT_GT(w, 0);
}

TEST(PartitionMetrics, RepairPrefersLooseVertices) {
  // Path 0-1-2-3 plus isolated 4: the isolated vertex (zero internal
  // weight) is the cheapest donor into the empty part.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const auto g = b.build();
  Partition p{2, {0, 0, 0, 0, 0}};
  EXPECT_EQ(repair_empty_parts(g, p), 1);
  EXPECT_EQ(p.where[4], 1);  // the isolated vertex moved
  EXPECT_EQ(edge_cut(g, p), 0);
}

TEST(PartitionMetrics, RepairNoopWhenAllPopulated) {
  const auto g = make_path(4);
  Partition p{2, {0, 0, 1, 1}};
  EXPECT_EQ(repair_empty_parts(g, p), 0);
  EXPECT_EQ(p.where, (std::vector<part_t>{0, 0, 1, 1}));
}

TEST(PartitionMetrics, MaxMinPartWeight) {
  EXPECT_EQ(max_part_weight(100, 4, 0.03), 26);  // ceil(25 * 1.03)
  EXPECT_EQ(min_part_weight(100, 4, 0.03), 24);  // floor(25 * 0.97)
}

TEST(GraphOps, Components) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = b.build();
  EXPECT_EQ(count_components(g), 3);  // {0,1} {2,3} {4}
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(make_path(10)));
}

TEST(GraphOps, PermutePreservesStructure) {
  const auto g = make_path(4);
  std::vector<vid_t> perm = {3, 2, 1, 0};  // reverse
  const auto h = permute(g, perm);
  EXPECT_TRUE(h.validate().empty()) << h.validate();
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // Old edge {0,1} becomes {3,2}.
  bool found = false;
  for (const vid_t u : h.neighbors(3)) found |= (u == 2);
  EXPECT_TRUE(found);
}

TEST(GraphOps, InducedSubgraph) {
  const auto g = make_complete(4);
  std::vector<char> mask = {1, 1, 1, 0};
  std::vector<vid_t> map;
  const auto h = induced_subgraph(g, mask, &map);
  EXPECT_TRUE(h.validate().empty());
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 3);  // K3
  EXPECT_EQ(map[3], kInvalidVid);
}

TEST(GraphOps, ExtractPart) {
  const auto g = make_path(6);
  Partition p{2, {0, 0, 0, 1, 1, 1}};
  const auto h = extract_part(g, p, 1, nullptr);
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 2);
}

TEST(GraphOps, DegreeStats) {
  const auto s = degree_stats(make_path(4));
  EXPECT_EQ(s.min_degree, 1);
  EXPECT_EQ(s.max_degree, 2);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.5);
}

// --- matching / cmap / contraction reference ---

TEST(Matching, ValidateMatch) {
  EXPECT_TRUE(validate_match({1, 0, 2}).empty());      // pair + self
  EXPECT_FALSE(validate_match({1, 2, 0}).empty());     // 3-cycle, not involutive
  EXPECT_FALSE(validate_match({5, 0}).empty());        // out of range
}

TEST(Matching, BuildCmapSerial) {
  // match: (0,1) pair, 2 self, (3,4) pair.
  const std::vector<vid_t> match = {1, 0, 2, 4, 3};
  const auto [cmap, nc] = build_cmap_serial(match);
  EXPECT_EQ(nc, 3);
  EXPECT_EQ(cmap, (std::vector<vid_t>{0, 0, 1, 2, 2}));
  EXPECT_TRUE(validate_cmap(match, cmap, nc).empty());
}

TEST(Matching, ValidateCmapCatchesBadLabelOrder) {
  const std::vector<vid_t> match = {1, 0, 2};
  // Leaders 0 and 2 must get labels 0 and 1; swap them.
  EXPECT_FALSE(validate_cmap(match, {1, 1, 0}, 2).empty());
}

TEST(Matching, ValidateCmapRejectsOutOfRangeMatch) {
  // A corrupted match entry must be reported, not used as an index.
  const std::string err = validate_cmap({1, 0, 1 << 30}, {0, 0, 1}, 2);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  EXPECT_NE(validate_cmap({1, 0, -7}, {0, 0, 1}, 2).find("out of range"),
            std::string::npos);
}

TEST(Contraction, PathPairs) {
  const auto g = make_path(4);
  const std::vector<vid_t> match = {1, 0, 3, 2};
  const auto [cmap, nc] = build_cmap_serial(match);
  const auto c = contract_serial(g, match, cmap, nc);
  EXPECT_TRUE(c.validate().empty()) << c.validate();
  EXPECT_EQ(c.num_vertices(), 2);
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.vertex_weight(0), 2);
  EXPECT_EQ(c.vertex_weight(1), 2);
  // The edge {1,2} survives with weight 1.
  EXPECT_EQ(c.neighbor_weights(0)[0], 1);
}

TEST(Contraction, MergesParallelCoarseArcs) {
  // Square 0-1-2-3-0 plus diagonal-ish weights; match (0,1) and (2,3):
  // coarse vertices A={0,1}, B={2,3}; fine edges 1-2 and 3-0 both become
  // A-B and must merge with summed weight.
  GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 2);
  b.add_edge(2, 3, 7);
  b.add_edge(3, 0, 4);
  const auto g = b.build();
  const std::vector<vid_t> match = {1, 0, 3, 2};
  const auto [cmap, nc] = build_cmap_serial(match);
  const auto c = contract_serial(g, match, cmap, nc);
  EXPECT_EQ(c.num_vertices(), 2);
  EXPECT_EQ(c.num_edges(), 1);
  EXPECT_EQ(c.neighbor_weights(0)[0], 6);  // 2 + 4
}

TEST(Contraction, ConservesVertexWeight) {
  Rng r(5);
  GraphBuilder b(50);
  for (int i = 0; i < 150; ++i) {
    const auto u = static_cast<vid_t>(r.next_below(50));
    const auto v = static_cast<vid_t>(r.next_below(50));
    if (u != v) b.add_edge(u, v, 1 + static_cast<wgt_t>(r.next_below(5)));
  }
  const auto g = b.build();
  // Greedy valid matching: pair consecutive unmatched neighbours.
  std::vector<vid_t> match(50);
  for (vid_t v = 0; v < 50; ++v) match[static_cast<std::size_t>(v)] = v;
  for (vid_t v = 0; v < 50; ++v) {
    if (match[static_cast<std::size_t>(v)] != v) continue;
    for (const vid_t u : g.neighbors(v)) {
      if (u > v && match[static_cast<std::size_t>(u)] == u) {
        match[static_cast<std::size_t>(v)] = u;
        match[static_cast<std::size_t>(u)] = v;
        break;
      }
    }
  }
  ASSERT_TRUE(validate_match(match).empty());
  const auto [cmap, nc] = build_cmap_serial(match);
  const auto c = contract_serial(g, match, cmap, nc);
  EXPECT_TRUE(c.validate().empty()) << c.validate();
  EXPECT_EQ(c.total_vertex_weight(), g.total_vertex_weight());
  // Total arc weight shrinks exactly by twice the matched-edge weight.
  wgt_t matched_w2 = 0;
  for (vid_t v = 0; v < 50; ++v) {
    const vid_t m = match[static_cast<std::size_t>(v)];
    if (m == v) continue;
    const auto nbrs = g.neighbors(v);
    const auto wts = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == m) matched_w2 += wts[i];
    }
  }
  EXPECT_EQ(c.total_arc_weight(), g.total_arc_weight() - matched_w2);
}

TEST(Contraction, ProjectPartitionRoundTrip) {
  const auto g = make_path(6);
  const std::vector<vid_t> match = {1, 0, 3, 2, 5, 4};
  const auto [cmap, nc] = build_cmap_serial(match);
  const std::vector<part_t> coarse_where = {0, 1, 0};
  const auto fine = project_partition(cmap, coarse_where);
  EXPECT_EQ(fine, (std::vector<part_t>{0, 0, 1, 1, 0, 0}));
}

/// Reference row: merges the arcs of leader v and match[v] in a std::map.
std::map<vid_t, wgt_t> map_row(const CsrGraph& g,
                               const std::vector<vid_t>& match,
                               const std::vector<vid_t>& cmap, vid_t c,
                               vid_t v) {
  std::map<vid_t, wgt_t> row;
  const vid_t m = match[static_cast<std::size_t>(v)];
  for (const vid_t src : m == v ? std::vector<vid_t>{v}
                                : std::vector<vid_t>{v, m}) {
    const auto nbrs = g.neighbors(src);
    const auto wts = g.neighbor_weights(src);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t cu = cmap[static_cast<std::size_t>(nbrs[i])];
      if (cu != c) row[cu] += wts[i];
    }
  }
  return row;
}

/// Appends one merged row and checks it against map_row.
void expect_row(CoarseRowMerger& merger, const CsrGraph& g,
                const std::vector<vid_t>& match,
                const std::vector<vid_t>& cmap, vid_t c, vid_t v) {
  std::vector<vid_t> adj = {-1};  // rows append after existing entries
  std::vector<wgt_t> wgt = {-1};
  std::uint64_t work = 0;
  const std::size_t len = merger.merge(g, match, cmap, c, v, adj, wgt, work);
  const auto want = map_row(g, match, cmap, c, v);
  ASSERT_EQ(len, want.size());
  ASSERT_EQ(adj.size(), len + 1);
  std::size_t i = 1;
  for (const auto& [cu, w] : want) {
    EXPECT_EQ(adj[i], cu) << "row " << c << " entry " << i;
    EXPECT_EQ(wgt[i], w) << "row " << c << " entry " << i;
    ++i;
  }
  const vid_t m = match[static_cast<std::size_t>(v)];
  EXPECT_EQ(work, static_cast<std::uint64_t>(
                      g.degree(v) + (m != v ? g.degree(m) : 0)));
}

TEST(CoarseRowMerger, MatchesMapMergeOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng r(seed);
    const vid_t n = 200;
    GraphBuilder b(n);
    for (int i = 0; i < 900; ++i) {
      const auto u = static_cast<vid_t>(r.next_below(n));
      const auto v = static_cast<vid_t>(r.next_below(n));
      if (u != v) b.add_edge(u, v, 1 + static_cast<wgt_t>(r.next_below(9)));
    }
    const auto g = b.build();
    // Random valid matching over random edges.
    std::vector<vid_t> match(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) match[static_cast<std::size_t>(v)] = v;
    for (int i = 0; i < 300; ++i) {
      const auto v = static_cast<vid_t>(r.next_below(n));
      const auto nbrs = g.neighbors(v);
      if (nbrs.empty() || match[static_cast<std::size_t>(v)] != v) continue;
      const vid_t u = nbrs[r.next_below(nbrs.size())];
      if (match[static_cast<std::size_t>(u)] != u) continue;
      match[static_cast<std::size_t>(v)] = u;
      match[static_cast<std::size_t>(u)] = v;
    }
    ASSERT_TRUE(validate_match(match).empty());
    const auto [cmap, nc] = build_cmap_serial(match);
    // One merger serves every row of the level, in vertex order.
    CoarseRowMerger merger(nc);
    for (vid_t v = 0; v < n; ++v) {
      if (v <= match[static_cast<std::size_t>(v)]) {
        expect_row(merger, g, match, cmap, cmap[static_cast<std::size_t>(v)],
                   v);
      }
    }
  }
}

TEST(CoarseRowMerger, SameLeaderUnderTwoCoarseIds) {
  // A corrupted cmap can name one leader for two coarse ids (mt_contract
  // then merges it twice).  The second row must not inherit the first
  // row's slots: a merger that marked slots with the leader id would take
  // them as already in the row and drop every neighbour the first touched.
  GraphBuilder b(6);
  b.add_edge(0, 1, 3);
  b.add_edge(0, 2, 5);
  b.add_edge(0, 3, 7);
  b.add_edge(1, 4, 2);
  b.add_edge(1, 5, 4);
  b.add_edge(2, 3, 1);
  const auto g = b.build();
  const std::vector<vid_t> match = {1, 0, 2, 3, 4, 5};
  const std::vector<vid_t> cmap = {0, 0, 1, 2, 3, 1};
  CoarseRowMerger merger(4);
  expect_row(merger, g, match, cmap, 0, 0);
  expect_row(merger, g, match, cmap, 1, 0);  // same leader, other id
  expect_row(merger, g, match, cmap, 0, 0);
  expect_row(merger, g, match, cmap, 2, 3);
  expect_row(merger, g, match, cmap, 2, 0);
}

}  // namespace
}  // namespace gp
