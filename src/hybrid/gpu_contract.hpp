// GPU contraction of GP-metis (paper Section III-A, contraction step):
// per-thread maximum-entry counts (temp), an exclusive prefix sum for the
// temporary-array offsets, merge into temporary adjacency arrays (either
// quicksort+remove or the clustered hash table), actual counts (temp2), a
// second prefix sum, and the final compaction copy.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hybrid/gpu_graph.hpp"

namespace gp {

struct GpuContractStats {
  std::uint64_t temp_entries = 0;   ///< allocated temporary slots
  std::uint64_t final_entries = 0;  ///< actual coarse arcs
};

/// The device sort-merge row step (paper: quicksort, then "remove"): sorts
/// `row` by coarse id and sums adjacent duplicates in place.
void sort_merge_row(std::vector<std::pair<vid_t, wgt_t>>& row);

/// Contracts the device graph given a valid device (match, cmap).
/// `use_hash` selects the clustered-hash-table merge (paper: faster) over
/// the sort-merge; both are kept for the ablation bench.
///
/// Under GpuScanMode::kLookback the launch ladder collapses to three
/// dispatches — count chain (leaders + maxcount + scan1), build chain
/// (merge + scan2 + adjp scan), compaction copy — via single-pass
/// look-back scans inside fused dispatches (DESIGN.md §3.9).  Results are
/// byte-identical to the blocked per-kernel path.
[[nodiscard]] GpuGraph gpu_contract(Device& dev, const GpuGraph& fine,
                                    const DeviceBuffer<vid_t>& match,
                                    const DeviceBuffer<vid_t>& cmap,
                                    vid_t n_coarse, int level,
                                    std::int64_t n_threads, bool use_hash,
                                    GpuScanMode mode = GpuScanMode::kBlocked,
                                    GpuContractStats* stats = nullptr);

}  // namespace gp
