// Matching arrays and the shared contraction contract.
//
// Every coarsening implementation in this library (serial, mt, par,
// hybrid/GPU) produces the same two artifacts per level:
//
//   match[v]  — partner of v (match[v] == v for vertices matched to
//               themselves; never kInvalidVid after conflict resolution)
//   cmap[v]   — label of the coarse vertex v collapses into
//
// A match array is VALID iff it is an involution: match[match[v]] == v for
// all v.  A cmap is CONSISTENT with a match iff cmap[v] == cmap[match[v]],
// cmap is a surjection onto [0, n_coarse), and leaders (min(v, match[v]))
// receive strictly increasing labels in vertex order — the property the
// paper's 4-kernel prefix-sum construction guarantees.
#pragma once

#include <string>
#include <vector>

#include "core/csr_graph.hpp"
#include "util/types.hpp"

namespace gp {

struct MatchResult {
  std::vector<vid_t> match;  ///< involution over [0,n)
  std::vector<vid_t> cmap;   ///< coarse label per fine vertex
  vid_t              n_coarse = 0;
};

/// Checks the involution property.  Empty string on success.
[[nodiscard]] std::string validate_match(const std::vector<vid_t>& match);

/// Checks cmap consistency against a match (see header comment).  A match
/// entry outside [0,n) is reported, not indexed: audits feed this
/// freshly downloaded, possibly corrupted data.
[[nodiscard]] std::string validate_cmap(const std::vector<vid_t>& match,
                                        const std::vector<vid_t>& cmap,
                                        vid_t n_coarse);

/// Builds cmap from a valid match by the canonical serial rule: scan
/// vertices in order, a vertex v with v <= match[v] is a leader and gets
/// the next coarse label; followers copy their leader's label.  This is
/// the reference implementation the parallel 4-kernel GPU pipeline must
/// agree with (tests assert equality).
[[nodiscard]] std::pair<std::vector<vid_t>, vid_t> build_cmap_serial(
    const std::vector<vid_t>& match);

/// Reference serial contraction: collapses matched pairs of `fine` into a
/// coarse graph.  Vertex weights add; parallel coarse arcs merge with
/// summed weights; arcs internal to a pair vanish.  All parallel
/// contractions are tested against this.
[[nodiscard]] CsrGraph contract_serial(const CsrGraph& fine,
                                       const std::vector<vid_t>& match,
                                       const std::vector<vid_t>& cmap,
                                       vid_t n_coarse);

/// Projects a coarse partition back through cmap onto the fine graph.
[[nodiscard]] std::vector<part_t> project_partition(
    const std::vector<vid_t>& cmap, const std::vector<part_t>& coarse_where);

}  // namespace gp
