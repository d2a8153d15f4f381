// The repository benchmark: three named workloads, the end-to-end metrics
// they report, and the traced run that attributes wall time to the
// library's layers.  See perfbench/README.md for the design.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "trace.hpp"

namespace perfbench {

using gp::CsrGraph;
using gp::PartitionOptions;
using gp::PartitionResult;

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one invocation reports.
struct Report {
  std::string config;  ///< canonical configuration string of the workload
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per invalid output (call or request id plus the reason).
  std::vector<std::string> errors;

  [[nodiscard]] bool correct() const { return errors.empty(); }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs workload `name` for `seconds` seconds of measurement.  trace=false
/// reports the end-to-end metrics; trace=true the per-layer metrics, and
/// writes the Chrome trace to `trace_path` (when non-empty).
[[nodiscard]] Report run_workload(const std::string& name, std::uint64_t seed,
                                  double seconds, bool trace,
                                  const std::string& trace_path);

// ---- pieces shared with the benchmark's own tests ----

/// A batch workload: one closed-loop caller driving one partitioner.
struct BatchSpec {
  std::string driver;  ///< "gp-metis" or "parmetis"
  std::string graph;   ///< make_paper_graph family
  double scale = 0;
  double tail_pct = 0;  ///< percentile reported as latency_tail_s
  PartitionOptions opts;
};

/// Throws std::invalid_argument for a name that is not a batch workload.
[[nodiscard]] BatchSpec batch_spec(const std::string& workload);

/// Empty when `r` is a valid answer for (g, o): validate_partition with
/// the stored cut and balance, the library's partition audit, and no
/// leaked pool blocks.  Otherwise the reason.
[[nodiscard]] std::string check_result(const CsrGraph& g,
                                       const PartitionOptions& o,
                                       const PartitionResult& r);

/// The balance target: 1 + eps + one-vertex granularity (k * max vertex
/// weight / total weight).  Outputs above it are valid but counted as
/// missing the target (balanced_frac).
[[nodiscard]] double balance_limit(const CsrGraph& g,
                                   const PartitionOptions& o);

/// One partitioner call with the fields the benchmark keeps.
struct CallRecord {
  double wall_s = 0;
  double modeled_s = 0;
  double cut = 0;
  double total_edge_weight = 0;
  double edges = 0;  ///< undirected input edges
  double balance = 0;
  bool balanced = false;  ///< balance <= balance_limit(g, o)
  std::uint64_t fnv = 0;  ///< FNV-1a of the partition vector
  gp::PhaseSeconds phases;
  std::uint64_t launches = 0;        ///< device kernel dispatches
  std::uint64_t transfer_bytes = 0;  ///< computed PCIe bytes (ledger)
  std::uint64_t supersteps = 0;      ///< SimComm supersteps (ledger)
  std::uint64_t messages = 0;        ///< critical-path messages (ledger)
  std::uint64_t comm_bytes = 0;      ///< critical-path bytes (ledger)
  double comm_modeled_s = 0;
  double compute_modeled_s = 0;
  /// Host CPU share stolen during the stretch of calls this call ran in
  /// (set by the closed loop; see undisturbed()).
  double steal_share = 0;
  std::string error;  ///< empty when the output checked valid
};

/// Runs `driver` once on g (gp-metis through gp_metis_run so `log` can be
/// filled) and checks the output.  Exceptions become CallRecord::error.
/// `out`, when non-null, receives the full result.
[[nodiscard]] CallRecord run_call(const std::string& driver, const CsrGraph& g,
                                  const PartitionOptions& o,
                                  gp::GpPhaseLog* log = nullptr,
                                  PartitionResult* out = nullptr);

/// The calls the wall-time metrics use: those in stretches of the run
/// during which the host stole at most 2% of the CPU time, or, when fewer
/// than a quarter of the calls qualify, the quarter with the least steal.
/// The choice depends only on the steal of each call's stretch, which the
/// closed loop measures over >= 2 s windows, never on a call's latency.
[[nodiscard]] std::vector<CallRecord> undisturbed(
    std::vector<CallRecord> calls);

/// Non-wall fields of `calls` batch calls plus one replayed V-cycle, as
/// text: byte-identical across runs when threads = ranks = host workers
/// = 1.
[[nodiscard]] std::string deterministic_fields(const std::string& workload,
                                               std::uint64_t seed, int calls);

/// One open-loop arrival of the service-mix workload.
struct Arrival {
  double at_s = 0;  ///< scheduled send time, from the start of the phase
  int graph = 0;    ///< index into the pre-generated pool
  int driver = 0;   ///< index into the service drivers
  bool fault = false;  ///< carries cmap@0 with phase audits
  std::uint64_t seed = 0;
};

/// Seeded Poisson schedule at `rate` req/s over `duration_s` seconds.
/// `stream` separates the operating phase from each ladder probe.
[[nodiscard]] std::vector<Arrival> make_schedule(std::uint64_t seed,
                                                 double rate,
                                                 double duration_s,
                                                 std::uint64_t stream);

/// Replays one GP-metis V-cycle on g through the public layer functions
/// (upload, gpu_match/gpu_contract per level, download, the mt_* middle,
/// gpu_project/gpu_refine back up), each call under its own span, all
/// children of one "replay.gp_vcycle" span whose index is returned.
/// Errors in the replayed partition are appended to `errors`.
int replay_gp_vcycle(Tracer& tr, const CsrGraph& g, const PartitionOptions& o,
                     std::uint64_t id, std::vector<std::string>& errors);

/// Same for one mt-metis V-cycle under a "replay.mt_vcycle" span.
int replay_mt_vcycle(Tracer& tr, const CsrGraph& g, const PartitionOptions& o,
                     std::uint64_t id, std::vector<std::string>& errors);

}  // namespace perfbench
