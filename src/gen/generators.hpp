// Synthetic graph generators.
//
// The paper evaluates on four DIMACS graphs we cannot download here
// (see DESIGN.md §3.3); each generator below produces a synthetic graph
// with matched structure — degree distribution, regularity, and dimension
// — so the partitioners face the same kind of irregularity:
//
//   ldoor       -> fem_slab_graph        3D FEM slab with a hole, ~48 avg deg
//   delaunay    -> delaunay_graph        true Delaunay triangulation, ~6 avg deg
//   hugebubbles -> bubble_mesh_graph     degree-3 honeycomb with holes
//   USA roads   -> road_network_graph    chains + sparse intersections, ~2.4 avg deg
//
// Plus simple generators (grid, ER, RMAT) for tests and ablations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/csr_graph.hpp"

namespace gp {

/// 2D grid mesh, 4-neighbour stencil.
[[nodiscard]] CsrGraph grid2d_graph(vid_t width, vid_t height);

/// 3D grid mesh, 6-neighbour stencil.
[[nodiscard]] CsrGraph grid3d_graph(vid_t nx, vid_t ny, vid_t nz);

/// Erdos-Renyi G(n, m): n vertices, ~m distinct random edges.
[[nodiscard]] CsrGraph erdos_renyi_graph(vid_t n, eid_t m, std::uint64_t seed);

/// RMAT power-law graph (a,b,c,d = 0.57,0.19,0.19,0.05), deduplicated.
[[nodiscard]] CsrGraph rmat_graph(vid_t n_log2, eid_t m, std::uint64_t seed);

/// ldoor analogue: 3D hexahedral FEM slab (nx x ny x nz) with a
/// rectangular door-hole, second-order stencil (Chebyshev-1 plus even
/// Chebyshev-2 shell) giving ~48 average degree.
[[nodiscard]] CsrGraph fem_slab_graph(vid_t nx, vid_t ny, vid_t nz);

/// delaunay_nXX analogue: Delaunay triangulation (Bowyer-Watson) of n
/// uniform random points in the unit square.
[[nodiscard]] CsrGraph delaunay_graph(vid_t n, std::uint64_t seed);

/// hugebubbles analogue: degree-3 honeycomb lattice of ~n vertices with
/// `holes` circular bubbles removed (largest component returned).
[[nodiscard]] CsrGraph bubble_mesh_graph(vid_t n, int holes,
                                         std::uint64_t seed);

/// USA-roads analogue: sparse intersection network whose edges are
/// subdivided into degree-2 chains; average degree ~2.4, huge diameter.
[[nodiscard]] CsrGraph road_network_graph(vid_t n, std::uint64_t seed);

// --- paper-instance registry (Table I) ---

struct PaperGraphInfo {
  std::string name;
  std::string description;      ///< Table I "Description" column
  vid_t paper_vertices;         ///< Table I vertex count
  eid_t paper_edges;            ///< Table I edge count
};

/// The four Table I rows, in paper order.
[[nodiscard]] const std::vector<PaperGraphInfo>& paper_graphs();

/// Builds the synthetic stand-in for Table I row `name` at `scale` times
/// the paper's vertex count (scale 1.0 = full size).
[[nodiscard]] CsrGraph make_paper_graph(const std::string& name, double scale,
                                        std::uint64_t seed);

}  // namespace gp
