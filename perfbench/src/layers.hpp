// Per-layer measurements of the traced run: the replayed V-cycles, the
// microcalls into the execution layers, and the modeled figures and counts
// taken from instrumented driver calls.
#pragma once

#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Where each layer family is measured in one traced run.
struct LayerInputs {
  const CsrGraph* gp_graph = nullptr;  ///< gp replay + gp-metis driver call
  PartitionOptions gp_opts;
  std::vector<const CsrGraph*> mt_graphs;  ///< extra mt_* replays (gp_opts)
  const CsrGraph* par_graph = nullptr;  ///< parmetis driver call
  PartitionOptions par_opts;
  std::vector<const CsrGraph*> serial_graphs;  ///< single-thread metis base
  std::vector<std::uint64_t> serial_seeds;
  std::uint64_t seed = 0;
};

/// Runs the replays (spans into `tr`), microcalls and instrumented driver
/// calls, and appends the hybrid.*, gpu.*, mt.*, par.*, util.* and
/// serial.* metrics plus model.transfer_s and bench.replay_coverage.
void append_layer_metrics(Tracer& tr, const LayerInputs& in, Report& rep);

/// Empty when p is a valid partition of g into o.k parts: structure, and
/// the library's own partition audit (no part beyond 1.5x the eps cap, the
/// corruption threshold; eps itself is a refinement target).
[[nodiscard]] std::string check_partition(const CsrGraph& g,
                                          const PartitionOptions& o,
                                          const gp::Partition& p);

}  // namespace perfbench
