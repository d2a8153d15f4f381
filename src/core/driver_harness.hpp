// The driver harness (DESIGN.md §3.4): everything the multilevel drivers
// share around a V-cycle attempt — option validation, the wall timer, the
// fault injector and deadline watchdog, THE attempt loop with its recovery
// ladder, the shared CPU fallback rungs, and finalisation (injector
// report, phase roll-up, modeled and wall seconds).
//
// A driver passes its attempt body and its ladder as data: per failure
// kind, steps that retry, retry after adjusting driver state, or leave for
// the next rung; a failure with no step left rethrows.  After the driver's
// own attempts come two shared rungs: (1) the pure mt-metis pipeline,
// (2) the serial reference run with corruption suppressed.  With no
// injector armed an audit failure is a genuine bug and always propagates.
#pragma once

#include <array>
#include <climits>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/matching.hpp"
#include "core/partitioner.hpp"

namespace gp {

/// Per-run state an attempt body works on.
struct DriverRun {
  const CsrGraph& g;
  const PartitionOptions& opts;
  FaultInjector* injector;  ///< null when no fault spec is armed
  const Watchdog& watchdog;
  PartitionResult& res;
};

/// Failure kinds a ladder answers (AuditError, ThreadPoolTaskError,
/// DeviceOutOfMemory, DeviceFailure); anything else propagates.
enum class Failure : int { kAudit = 0, kTask, kDeviceOom, kDeviceLost };

inline constexpr int kAlways = INT_MAX;  ///< step answers every failure

struct LadderStep {
  enum Verdict { kRetry, kNextRung };
  Verdict verdict = kRetry;
  const char* note = nullptr;  ///< health note, "{}" = what(); null: none
  int times = 1;               ///< consecutive failures this step answers
  bool suppress_corruption = false;
  /// Adjusts driver state before the retry and returns the note; nullopt
  /// (adjustment unavailable) falls through to the next step.
  std::function<std::optional<std::string>(const std::exception&)> adjust{};
};

struct LadderRow {
  std::vector<LadderStep> steps{};
  // RunHealth counters bumped per failure (`degraded` is always set).
  bool rollback = false, fallback = false, gpu_retry = false;
  const char* reset_label = nullptr;  ///< ledger label of a device reset
  /// Past the deadline: leave for the next rung with this note.
  const char* spent_note = nullptr;
};

struct DriverLadder {
  std::array<LadderRow, 4> rows{};  ///< indexed by Failure
  bool shared_restarts = false;  ///< audit + task failures share a count
  /// Checked before each attempt; false leaves for the next rung.
  std::function<bool()> can_attempt{};
  const char* mt_rung_note = nullptr;      ///< rung 1 entry note
  const char* serial_rung_head = nullptr;  ///< rung 2 entry note head

  LadderRow& row(Failure f) { return rows[static_cast<std::size_t>(f)]; }
};

/// Audit row of metis, mt-metis and parmetis: one whole-run restart with
/// corruption injection suppressed.
[[nodiscard]] LadderRow suppressed_restart_row();

/// OOM step of the GPU drivers: raise the CPU handoff (x4, or the whole
/// graph past n/4) and retry, until the handoff covers the graph.
[[nodiscard]] LadderStep raise_handoff_step(const char* driver,
                                            vid_t& handoff, vid_t n,
                                            int times);

enum class PhaseRollup {
  kPrefix,      ///< by label prefix: [kernel/]coarsen/, initpart/, ...
  kSupersteps,  ///< parmetis: comm/ and compute/ bodies by superstep
};

struct DriverSpec {
  std::function<void(DriverRun&)> attempt{};
  DriverLadder ladder{};
  PhaseRollup rollup = PhaseRollup::kPrefix;
  /// Driver tallies folded in before the injector's report.
  std::function<void(DriverRun&)> before_report{};
};

[[nodiscard]] PartitionResult run_driver(const CsrGraph& g,
                                         const PartitionOptions& opts,
                                         const DriverSpec& spec);

/// The pure mt-metis pipeline with a final audit: the mt-metis driver's
/// attempt body and rung 1.
void mt_pipeline_attempt(DriverRun& run);

// ---- per-attempt helpers shared by the V-cycles ----

/// Stores the attempt's final partition: audited against the input graph
/// (a failure throws for the ladder) before cut and balance index by it.
void finish_partition(DriverRun& run, Partition p);

/// Tallies one audit in the run's health; returns f.ok().
bool record_audit(DriverRun& run, const AuditFailure& f);
/// record_audit, then throws AuditError when `f` failed.
void require_audit(DriverRun& run, AuditFailure f);

/// The run's deadline check; notes the shed (a fallback, degraded) once.
class ShedWatch {
 public:
  explicit ShedWatch(DriverRun& run,
                     const char* note = "watchdog: time budget exceeded, "
                                        "shedding refinement")
      : run_(run), note_(note) {}
  bool expired();

 private:
  DriverRun& run_;
  const char* note_;
  bool noted_ = false;
};

/// `cmap@N` / `cmap:p=` corruption site: perturbs one entry of a level's
/// n-entry coarse map between matching and contraction.
void corrupt_cmap_entry(FaultInjector* injector, vid_t* cmap, std::size_t n,
                        vid_t n_coarse);

/// Contracts one level via `contract(reference=false)` and audits it; a
/// failed audit rolls the level back once onto the serial reference (cmap
/// rebuilt from the audited match, `contract(true)`), a second throws.
[[nodiscard]] CsrGraph contract_level(
    DriverRun& run, const CsrGraph& fine, MatchResult& m, int level,
    const std::function<CsrGraph(bool)>& contract);

}  // namespace gp
