// Parallel contraction for the shared-memory partitioner: coarse vertices
// are statically divided among threads; each thread merges the adjacency
// lists of its collapsed pairs into thread-local buffers through its own
// CoarseRowMerger (the shared dense-marker merge of core/matching), after
// which a prefix sum over coarse degrees assembles the final CSR.
#pragma once

#include "core/csr_graph.hpp"
#include "core/matching.hpp"
#include "mt/mt_context.hpp"

namespace gp {

/// Contracts `fine` according to a valid (match, cmap).  Result equals
/// contract_serial (tested) but is built by the pool with metered work.
[[nodiscard]] CsrGraph mt_contract(const CsrGraph& fine,
                                   const MatchResult& m, const MtContext& ctx,
                                   int level);

}  // namespace gp
