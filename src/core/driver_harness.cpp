#include "core/driver_harness.hpp"

#include <memory>
#include <string_view>
#include <tuple>
#include <utility>

#include "gpu/device.hpp"
#include "mt/mt_partitioner.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace gp {

namespace {

/// Modeled cost of a device context reset before a retry (cudaDeviceReset
/// plus re-initialisation: milliseconds).
constexpr double kDeviceResetSeconds = 2e-3;

std::string fill_note(const char* note, const char* what) {
  std::string s = note;
  if (const auto at = s.find("{}"); at != std::string::npos) {
    s.replace(at, 2, what);
  }
  return s;
}

/// Rung 2: the serial reference run with fault injection off, merged into
/// the run's result and ledger.
void serial_rung(DriverRun& run) {
  if (run.injector) run.injector->set_corruption_suppressed(true);
  PartitionOptions serial_opts = run.opts;
  serial_opts.fault_spec.clear();
  PartitionResult s = make_serial_partitioner()->run(run.g, serial_opts);
  PartitionResult& res = run.res;
  res.partition = std::move(s.partition);
  res.cut = s.cut;
  res.balance = s.balance;
  res.coarsen_levels = s.coarsen_levels;
  res.coarsest_vertices = s.coarsest_vertices;
  res.health.audits_run += s.health.audits_run;
  res.health.audits_failed += s.health.audits_failed;
  res.ledger.merge("", s.ledger);
}

void roll_up_phases(PhaseRollup rollup, PartitionResult& res) {
  const CostLedger& l = res.ledger;
  if (rollup == PhaseRollup::kPrefix) {
    res.phases.transfer = l.seconds_with_prefix("transfer/");
    res.phases.coarsen = l.seconds_with_prefix("kernel/coarsen/") +
                         l.seconds_with_prefix("coarsen/");
    res.phases.initpart = l.seconds_with_prefix("initpart/");
    res.phases.uncoarsen = l.seconds_with_prefix("kernel/uncoarsen/") +
                           l.seconds_with_prefix("uncoarsen/");
    return;
  }
  // Strip the comm/ or compute/ channel; the match/cmap ghost exchanges
  // and the leader allgather are coarsening, anything unnamed uncoarsening.
  for (const auto& e : l.entries()) {
    std::string_view body = e.label;
    if (body.starts_with("comm/")) body.remove_prefix(5);
    else if (body.starts_with("compute/")) body.remove_prefix(8);
    const bool coarsen =
        body.starts_with("coarsen") || body.starts_with("ghost/match") ||
        body.starts_with("ghost/cmap") || body.starts_with("allgather/leader");
    (coarsen                          ? res.phases.coarsen
     : body.starts_with("initpart") ? res.phases.initpart
                                      : res.phases.uncoarsen) += e.seconds;
  }
}

}  // namespace

LadderRow suppressed_restart_row() {
  return {.steps = {{.note = "rollback: whole-run restart with corruption "
                             "suppressed ({})",
                     .suppress_corruption = true}},
          .rollback = true,
          .fallback = true};
}

LadderStep raise_handoff_step(const char* driver, vid_t& handoff, vid_t n,
                              int times) {
  return {.times = times,
          .adjust = [driver, &handoff, n](const std::exception& e)
              -> std::optional<std::string> {
            if (handoff >= n) return std::nullopt;
            handoff = handoff > n / 4 ? n : handoff * 4;
            return std::string(driver) + ": OOM (" + e.what() +
                   "); retrying with CPU handoff at " +
                   std::to_string(handoff) + " vertices";
          }};
}

PartitionResult run_driver(const CsrGraph& g, const PartitionOptions& opts,
                           const DriverSpec& spec) {
  validate_options(g, opts);
  WallTimer wall;
  PartitionResult res;
  const std::unique_ptr<FaultInjector> injector = opts.make_fault_injector();
  // Injected corruption (flipped transfers, perturbed cmaps) is stopped
  // short of an out-of-range index only by the audits, so an armed run
  // audits at least at phase boundaries.
  std::optional<PartitionOptions> audited;
  if (injector && opts.audit_level == AuditLevel::kOff) {
    audited.emplace(opts);
    audited->audit_level = AuditLevel::kPhase;
  }
  const Watchdog watchdog(opts.time_budget_seconds);
  DriverRun run{g, audited ? *audited : opts, injector.get(), watchdog, res};
  RunHealth& health = res.health;
  const DriverLadder& ladder = spec.ladder;
  // The CPU rungs' own ladder: an audit failure in rung 1 moves on to
  // rung 2; anything else, and any failure in rung 2, propagates.
  const LadderRow cpu_audit_row{
      .steps = {{.verdict = LadderStep::kNextRung, .times = kAlways}},
      .rollback = true,
      .fallback = true};
  const LadderRow no_row;

  enum class Rung { kAttempt, kMtPipeline, kSerial } rung = Rung::kAttempt;
  std::array<int, 4> counts{};
  std::exception_ptr last;  // the failure that moves the run down a rung
  std::string last_what;

  auto next_rung = [&] {
    if (rung == Rung::kAttempt && ladder.mt_rung_note) {
      rung = Rung::kMtPipeline;
      ++health.fallbacks;
      health.degraded = true;
      health.note(ladder.mt_rung_note);
    } else if (rung != Rung::kSerial && ladder.serial_rung_head) {
      rung = Rung::kSerial;
      health.note(std::string(ladder.serial_rung_head) + " (" + last_what +
                  "); whole-run serial fallback with corruption suppressed");
    } else {
      std::rethrow_exception(last);
    }
    log_warn("%s", health.events.back().c_str());
  };
  // Runs inside the catch block: returns to retry, or moves down a rung,
  // or rethrows.
  auto on_failure = [&](Failure kind, const std::exception& e) {
    last = std::current_exception();
    last_what = e.what();
    if (kind == Failure::kAudit && !injector) throw;  // a genuine bug
    const LadderRow& row =
        rung == Rung::kAttempt ? ladder.rows[static_cast<std::size_t>(kind)]
        : rung == Rung::kMtPipeline && kind == Failure::kAudit
            ? cpu_audit_row
            : no_row;
    std::optional<std::string> note;
    std::size_t i = 0;
    if (row.spent_note && watchdog.expired()) {
      note = fill_note(row.spent_note, e.what());
      i = row.steps.size();
    } else {
      const bool shared = ladder.shared_restarts && kind == Failure::kTask;
      int seen = counts[static_cast<std::size_t>(shared ? Failure::kAudit
                                                        : kind)]++;
      while (i < row.steps.size() && seen >= row.steps[i].times) {
        seen -= row.steps[i++].times;
      }
      for (; i < row.steps.size(); ++i) {
        const LadderStep& s = row.steps[i];
        note = s.adjust ? s.adjust(e)
                        : s.note ? fill_note(s.note, e.what())
                                 : std::string();
        if (note) break;
      }
      if (!note) throw;  // steps used up
    }
    health.rollbacks += row.rollback;
    health.fallbacks += row.fallback;
    health.gpu_retries += row.gpu_retry;
    health.degraded = true;
    if (row.reset_label) {
      res.ledger.charge_raw(row.reset_label, kDeviceResetSeconds);
    }
    if (!note->empty()) health.note(std::move(*note));
    if (i == row.steps.size() ||
        row.steps[i].verdict == LadderStep::kNextRung) {
      next_rung();
    } else if (row.steps[i].suppress_corruption && injector) {
      injector->set_corruption_suppressed(true);
    }
  };

  for (;;) {
    if (rung == Rung::kAttempt && ladder.can_attempt &&
        !ladder.can_attempt()) {
      next_rung();
    }
    try {
      if (rung == Rung::kAttempt) {
        spec.attempt(run);
      } else if (rung == Rung::kMtPipeline) {
        mt_pipeline_attempt(run);
      } else {
        serial_rung(run);
      }
      break;
    } catch (const AuditError& e) {
      on_failure(Failure::kAudit, e);
    } catch (const ThreadPoolTaskError& e) {
      on_failure(Failure::kTask, e);
    } catch (const DeviceOutOfMemory& e) {
      on_failure(Failure::kDeviceOom, e);
    } catch (const DeviceFailure& e) {
      on_failure(Failure::kDeviceLost, e);
    }
  }

  if (spec.before_report) spec.before_report(run);
  if (injector) injector->report_into(health);
  roll_up_phases(spec.rollup, res);
  res.modeled_seconds = res.ledger.total_seconds();
  res.wall_seconds = wall.seconds();
  return res;
}

void mt_pipeline_attempt(DriverRun& run) {
  MtPipelineResult out = mt_multilevel_pipeline(run.g, run, 0);
  finish_partition(run, std::move(out.partition));
  run.res.coarsen_levels = out.levels;
  run.res.coarsest_vertices = out.coarsest_vertices;
}

void finish_partition(DriverRun& run, Partition p) {
  const PartitionOptions& opts = run.opts;
  PartitionResult& res = run.res;
  res.partition = std::move(p);
  res.partition.k = opts.k;
  if (opts.audit_level != AuditLevel::kOff) {
    require_audit(run,
                  audit_partition(run.g, res.partition, opts.k, opts.eps,
                                  /*expected_cut=*/-1, opts.audit_level));
  }
  res.cut = edge_cut(run.g, res.partition);
  res.balance = partition_balance(run.g, res.partition);
}

bool record_audit(DriverRun& run, const AuditFailure& f) {
  RunHealth& health = run.res.health;
  ++health.audits_run;
  if (!f.ok()) {
    ++health.audits_failed;
    health.note("audit: " + f.to_string());
  }
  return f.ok();
}

void require_audit(DriverRun& run, AuditFailure f) {
  if (!record_audit(run, f)) throw AuditError(std::move(f));
}

bool ShedWatch::expired() {
  if (!run_.watchdog.expired()) return false;
  if (!noted_) {
    RunHealth& health = run_.res.health;
    health.note(note_);
    ++health.fallbacks;
    health.degraded = true;
    noted_ = true;
  }
  return true;
}

void corrupt_cmap_entry(FaultInjector* injector, vid_t* cmap, std::size_t n,
                        vid_t n_coarse) {
  std::uint64_t material = 0;
  if (!injector || n_coarse <= 1 || !injector->corrupt_cmap(&material)) {
    return;
  }
  vid_t& slot = cmap[material % n];
  slot = static_cast<vid_t>(
      (static_cast<std::uint64_t>(slot) + 1 +
       (material >> 32) % static_cast<std::uint64_t>(n_coarse - 1)) %
      static_cast<std::uint64_t>(n_coarse));
}

CsrGraph contract_level(DriverRun& run, const CsrGraph& fine, MatchResult& m,
                        int level,
                        const std::function<CsrGraph(bool)>& contract) {
  const AuditLevel audit = run.opts.audit_level;
  RunHealth& health = run.res.health;
  for (bool reference = false;; reference = true) {
    if (reference) {
      ++health.rollbacks;
      health.degraded = true;
      health.note("rollback: coarsen/L" + std::to_string(level) +
                  " re-contracted from rebuilt cmap");
      std::tie(m.cmap, m.n_coarse) = build_cmap_serial(m.match);
    }
    CsrGraph coarse = contract(reference);
    if (audit == AuditLevel::kOff) return coarse;
    AuditFailure f = audit_contraction(fine, coarse, m.match, m.cmap, audit);
    if (record_audit(run, f)) return coarse;
    if (reference) throw AuditError(std::move(f));
  }
}

}  // namespace gp
