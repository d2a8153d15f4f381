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

#include <cstdint>
#include <string>
#include <utility>
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

/// The host contraction kernel, one per worker: merges the adjacency of a
/// matched pair into one sorted coarse row.  slot_[cu] indexes cu's entry
/// in the current row and counts only if that entry holds cu (a sparse
/// set), so no slot is ever reset and a stale one cannot leak into a later
/// row, even when a corrupted cmap makes one leader head two rows.
class CoarseRowMerger {
 public:
  explicit CoarseRowMerger(vid_t n_coarse);

  /// Appends row `c` of leader `v` and match[v] to adj/wgt, dropping arcs
  /// into `c`, and returns its length; `work` grows by the degrees read.
  std::size_t merge(const CsrGraph& fine, const std::vector<vid_t>& match,
                    const std::vector<vid_t>& cmap, vid_t c, vid_t v,
                    std::vector<vid_t>& adj, std::vector<wgt_t>& wgt,
                    std::uint64_t& work);

 private:
  std::vector<std::uint32_t> slot_;            ///< one per coarse id
  std::vector<std::pair<vid_t, wgt_t>> row_;  ///< (coarse id, summed weight)
};

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
