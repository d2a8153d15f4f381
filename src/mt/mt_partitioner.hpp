// Shared-memory multilevel k-way partitioner (the paper's mt-metis
// competitor, and the engine GP-metis borrows for its CPU phases).
#pragma once

#include "core/driver_harness.hpp"
#include "core/partitioner.hpp"

namespace gp {

class MtMetisPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "mt-metis"; }
  [[nodiscard]] PartitionResult run(const CsrGraph& g,
                                    const PartitionOptions& opts) const override;
};

/// Output of the multilevel pipeline below — reused by GP-metis for the
/// CPU stage between the GPU coarsening and GPU uncoarsening (paper: "the
/// remaining coarsening steps are completed on the CPU using mt-metis").
struct MtPipelineResult {
  Partition partition;
  int       levels = 0;
  vid_t     coarsest_vertices = 0;
};

/// The pipeline on `g` (a whole input graph, or GP-metis' handoff graph
/// with levels numbered from `level_offset`), on a pool of opts.threads
/// workers charging run.res.ledger.  Audits (opts.audit_level) run at
/// phase boundaries; a failed contraction audit rolls the level back onto
/// the serial reference implementations, a failed refinement audit
/// restores the level's checkpoint.  Damage beyond level scope throws
/// AuditError for the run-level ladder.  The `cmap` corruption site,
/// audit tallies and deadline sheds report into `run`.
MtPipelineResult mt_multilevel_pipeline(const CsrGraph& g, DriverRun& run,
                                        int level_offset);

}  // namespace gp
