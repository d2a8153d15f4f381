// Tests for src/core/driver_harness.
//
// HarnessGolden pins every multilevel driver's full result trail —
// partition, metrics, RunHealth (events in order), phase roll-up, modeled
// cost, ledger rows, and device counters — hashed over a fixed slice of
// the chaos fault space, so a change to the code around the V-cycle (the
// attempt loop and the recovery ladders) must leave every pin unchanged.
//
// HarnessLadder drives run_driver with stub attempt bodies that throw each
// failure kind, with and without a fault injector armed, and checks the
// rung sequence and the health counters the ladder leaves behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "core/driver_harness.hpp"
#include "core/partitioner.hpp"
#include "gpu/device.hpp"
#include "service/engine.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace gp {
namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

void hash_result(Fnv& h, const PartitionResult& r) {
  h.pod(r.partition.k);
  h.pod(r.partition.where.size());
  h.bytes(r.partition.where.data(),
          r.partition.where.size() * sizeof(part_t));
  h.pod(r.cut);
  h.pod(r.balance);
  const RunHealth& hl = r.health;
  for (const std::uint64_t c :
       {hl.faults_injected, hl.gpu_retries, hl.devices_lost,
        hl.messages_dropped, hl.messages_resent, hl.match_repairs,
        hl.payload_discards, hl.fallbacks, hl.audits_run, hl.audits_failed,
        hl.rollbacks, hl.corruptions_injected}) {
    h.pod(c);
  }
  h.pod(hl.degraded);
  h.pod(hl.events.size());
  for (const auto& e : hl.events) h.str(e);
  for (const double s : {r.phases.coarsen, r.phases.initpart,
                         r.phases.uncoarsen, r.phases.transfer,
                         r.modeled_seconds}) {
    h.pod(s);
  }
  h.pod(r.ledger.entries().size());
  for (const auto& e : r.ledger.entries()) {
    h.str(e.label);
    h.pod(e.seconds);
    h.pod(e.work_units);
    h.pod(e.bytes);
    h.pod(e.launches);
  }
  h.pod(r.coarsen_levels);
  h.pod(r.coarsest_vertices);
  h.pod(r.exec.kernels_launched);
  h.pod(r.exec.pool_hits);
  h.pod(r.exec.pool_misses);
  h.pod(r.exec.pool_recycled_bytes);
  h.pod(r.exec.pool_leaked_blocks);
}

/// One hash over the driver's runs on the empty spec plus the first 40
/// generated chaos specs, at the phase and paranoid audit levels.  A run
/// that throws contributes its error text instead of a result.
std::uint64_t driver_trail_hash(const std::string& system) {
  constexpr std::uint64_t kSpecSeed = 2026;
  const ChaosConfig cfg;
  const CsrGraph g = chaos_make_graph(cfg);
  const auto driver = make_partitioner_by_name(system);
  Fnv h;
  for (const AuditLevel level : {AuditLevel::kPhase, AuditLevel::kParanoid}) {
    for (int i = -1; i < 40; ++i) {
      PartitionOptions opts;
      opts.k = cfg.k;
      opts.seed = cfg.partition_seed;
      opts.threads = 1;
      opts.gpu_host_workers = 1;
      opts.ranks = 1;  // parmetis is racy across ranks
      opts.gpu_cpu_threshold = std::max<vid_t>(64, cfg.graph_n / 4);
      opts.audit_level = level;
      opts.time_budget_seconds = cfg.time_budget_seconds;
      if (i >= 0) {
        opts.fault_spec = chaos_generate_spec(kSpecSeed, i, 3);
        opts.fault_seed = chaos_fault_seed(kSpecSeed, i);
      }
      h.pod(i);
      try {
        hash_result(h, driver->run(g, opts));
      } catch (const std::exception& e) {
        h.str(std::string("error: ") + e.what());
      }
    }
  }
  return h.value();
}

TEST(HarnessGolden, Metis) {
  EXPECT_EQ(driver_trail_hash("metis"), 17032463039725907197ULL);
}

TEST(HarnessGolden, MtMetis) {
  EXPECT_EQ(driver_trail_hash("mt-metis"), 13073031345608408410ULL);
}

TEST(HarnessGolden, ParMetis) {
  EXPECT_EQ(driver_trail_hash("parmetis"), 2876888350761688049ULL);
}

TEST(HarnessGolden, GpMetis) {
  EXPECT_EQ(driver_trail_hash("gp-metis"), 281126469157762507ULL);
}

TEST(HarnessGolden, GpMetisMulti) {
  EXPECT_EQ(driver_trail_hash("gp-metis-multi"), 684900089445208796ULL);
}

// ------------------------------------------------------------ ladder

using Thrower = std::function<void()>;

/// Stub attempt body: throws through `thrower` on its first `fails` calls
/// (every call when fails < 0), then stores a round-robin partition.
struct Stub {
  Thrower thrower;
  int fails = 1;
  int calls = 0;

  void operator()(DriverRun& run) {
    const bool fail = fails < 0 || calls < fails;
    ++calls;
    if (fail) thrower();
    Partition p{run.opts.k, std::vector<part_t>(
                                static_cast<std::size_t>(run.g.num_vertices()))};
    for (std::size_t v = 0; v < p.where.size(); ++v) {
      p.where[v] = static_cast<part_t>(v % static_cast<std::size_t>(p.k));
    }
    finish_partition(run, std::move(p));
  }
};

PartitionOptions ladder_options(bool armed) {
  PartitionOptions opts;
  opts.k = 4;
  opts.threads = 1;
  // A rule that never fires on a stub: it only arms the injector.
  if (armed) opts.fault_spec = "msg@1000000";
  return opts;
}

const CsrGraph& ladder_graph() {
  static const CsrGraph g = chaos_make_graph(ChaosConfig{});
  return g;
}

/// A GPU-driver-shaped ladder: audit retries once then leaves, task and
/// device loss always retry, OOM retries once then leaves; the CPU rungs
/// follow.
DriverLadder gpu_like_ladder() {
  DriverLadder l;
  l.row(Failure::kAudit) = {
      .steps = {{.note = "audit retry ({})"},
                {.verdict = LadderStep::kNextRung, .note = "audit leave ({})"}},
      .rollback = true,
      .gpu_retry = true,
      .reset_label = "fault/device-reset"};
  l.row(Failure::kTask) = {
      .steps = {{.note = "task retry ({})", .times = kAlways}},
      .gpu_retry = true,
      .reset_label = "fault/task-restart"};
  l.row(Failure::kDeviceOom) = {
      .steps = {{.note = "oom retry ({})"},
                {.verdict = LadderStep::kNextRung, .note = "oom leave ({})"}},
      .gpu_retry = true,
      .reset_label = "fault/device-reset"};
  l.row(Failure::kDeviceLost) = {
      .steps = {{.note = "lost retry ({})", .times = kAlways}},
      .reset_label = "fault/device-reset"};
  l.mt_rung_note = "leaving for the mt-metis rung";
  l.serial_rung_head = "mt-metis rung failed audit";
  return l;
}

PartitionResult run_stub(Stub& stub, const DriverLadder& ladder,
                         const PartitionOptions& opts) {
  DriverSpec spec{.attempt = std::ref(stub), .ladder = ladder};
  return run_driver(ladder_graph(), opts, spec);
}

bool charged(const PartitionResult& r, const std::string& label) {
  const auto& e = r.ledger.entries();
  return std::any_of(e.begin(), e.end(),
                     [&](const CostEntry& x) { return x.label == label; });
}

struct KindCase {
  const char* name;
  Failure kind;
  Thrower thrower;
  const char* what;
  const char* note;
};

std::vector<KindCase> kind_cases() {
  static const AuditError audit_error(
      AuditFailure{AuditFailure::Kind::kPartition, "stub", "audit boom"});
  return {
      {"audit", Failure::kAudit, [] { throw audit_error; },
       audit_error.what(), "audit retry"},
      {"task", Failure::kTask, [] { throw ThreadPoolTaskError("task boom"); },
       "task boom", "task retry"},
      {"oom", Failure::kDeviceOom,
       [] { throw DeviceOutOfMemory("oom boom"); }, "oom boom", "oom retry"},
      {"lost", Failure::kDeviceLost, [] { throw DeviceFailure("lost boom"); },
       "lost boom", "lost retry"},
  };
}

TEST(HarnessLadder, EachFailureKindRetriesOnce) {
  for (const KindCase& c : kind_cases()) {
    for (const bool armed : {true, false}) {
      SCOPED_TRACE(std::string(c.name) + (armed ? " armed" : " unarmed"));
      Stub stub{c.thrower};
      const DriverLadder ladder = gpu_like_ladder();
      if (c.kind == Failure::kAudit && !armed) {
        // Without an injector an audit failure is a genuine bug.
        EXPECT_THROW((void)run_stub(stub, ladder, ladder_options(armed)),
                     AuditError);
        EXPECT_EQ(stub.calls, 1);
        continue;
      }
      const PartitionResult r = run_stub(stub, ladder, ladder_options(armed));
      EXPECT_EQ(stub.calls, 2);
      ASSERT_EQ(r.health.events.size(), 1u);
      EXPECT_EQ(r.health.events[0],
                std::string(c.note) + " (" + c.what + ")");
      EXPECT_TRUE(r.health.degraded);
      EXPECT_EQ(r.health.rollbacks, c.kind == Failure::kAudit ? 1u : 0u);
      EXPECT_EQ(r.health.gpu_retries, c.kind == Failure::kDeviceLost ? 0u : 1u);
      EXPECT_EQ(r.health.fallbacks, 0u);
      EXPECT_TRUE(charged(r, c.kind == Failure::kTask ? "fault/task-restart"
                                                      : "fault/device-reset"));
      EXPECT_EQ(validate_partition(ladder_graph(), r.partition, r.cut,
                                   r.balance),
                "");
    }
  }
}

TEST(HarnessLadder, CancellationAndBadInputPropagateWithoutRetry) {
  for (const bool armed : {true, false}) {
    Stub cancelled{[] { throw CancelledError("stub"); }};
    EXPECT_THROW(
        (void)run_stub(cancelled, gpu_like_ladder(), ladder_options(armed)),
        CancelledError);
    EXPECT_EQ(cancelled.calls, 1);
    Stub invalid{[] { throw std::invalid_argument("stub"); }};
    EXPECT_THROW(
        (void)run_stub(invalid, gpu_like_ladder(), ladder_options(armed)),
        std::invalid_argument);
    EXPECT_EQ(invalid.calls, 1);
  }
}

TEST(HarnessLadder, LeavesForTheMtRungAfterTheLastStep) {
  for (const KindCase& c : kind_cases()) {
    if (c.kind != Failure::kAudit && c.kind != Failure::kDeviceOom) continue;
    SCOPED_TRACE(c.name);
    Stub stub{c.thrower, /*fails=*/-1};
    const PartitionResult r =
        run_stub(stub, gpu_like_ladder(), ladder_options(true));
    EXPECT_EQ(stub.calls, 2);
    const std::string kind = c.kind == Failure::kAudit ? "audit" : "oom";
    EXPECT_EQ(r.health.events,
              (std::vector<std::string>{
                  kind + " retry (" + c.what + ")",
                  kind + " leave (" + c.what + ")",
                  "leaving for the mt-metis rung"}));
    EXPECT_EQ(r.health.fallbacks, 1u);
    EXPECT_EQ(r.health.gpu_retries, 2u);
    EXPECT_GT(r.coarsen_levels, 0);  // the mt-metis pipeline produced it
    EXPECT_EQ(
        validate_partition(ladder_graph(), r.partition, r.cut, r.balance), "");
  }
}

TEST(HarnessLadder, AttemptBudgetLeavesForTheMtRung) {
  Stub stub{[] { throw DeviceFailure("lost boom"); }, /*fails=*/-1};
  DriverLadder ladder = gpu_like_ladder();
  ladder.can_attempt = [&] { return stub.calls < 3; };
  const PartitionResult r = run_stub(stub, ladder, ladder_options(false));
  EXPECT_EQ(stub.calls, 3);
  EXPECT_EQ(r.health.events,
            (std::vector<std::string>{"lost retry (lost boom)",
                                      "lost retry (lost boom)",
                                      "lost retry (lost boom)",
                                      "leaving for the mt-metis rung"}));
  EXPECT_EQ(r.health.fallbacks, 1u);
  EXPECT_EQ(r.health.gpu_retries, 0u);
}

TEST(HarnessLadder, AdjustmentFallsThroughWhenUnavailable) {
  const vid_t n = ladder_graph().num_vertices();
  vid_t handoff = n / 2;
  DriverLadder ladder = gpu_like_ladder();
  ladder.row(Failure::kDeviceOom).steps = {
      raise_handoff_step("stub", handoff, n, kAlways),
      {.verdict = LadderStep::kNextRung, .note = "oom leave ({})"}};
  Stub stub{[] { throw DeviceOutOfMemory("oom boom"); }, /*fails=*/-1};
  const PartitionResult r = run_stub(stub, ladder, ladder_options(true));
  EXPECT_EQ(handoff, n);  // raised past n/4 straight to the whole graph
  EXPECT_EQ(r.health.events,
            (std::vector<std::string>{
                "stub: OOM (oom boom); retrying with CPU handoff at " +
                    std::to_string(n) + " vertices",
                "oom leave (oom boom)", "leaving for the mt-metis rung"}));
}

TEST(HarnessLadder, SpentBudgetLeavesOnTheFirstAuditFailure) {
  DriverLadder ladder = gpu_like_ladder();
  ladder.row(Failure::kAudit).spent_note = "audit late ({})";
  PartitionOptions opts = ladder_options(true);
  opts.time_budget_seconds = 1e-12;
  Stub stub{kind_cases()[0].thrower, /*fails=*/-1};
  const PartitionResult r = run_stub(stub, ladder, opts);
  EXPECT_EQ(stub.calls, 1);
  ASSERT_GE(r.health.events.size(), 2u);
  EXPECT_EQ(r.health.events[0],
            std::string("audit late (") + kind_cases()[0].what + ")");
  EXPECT_EQ(r.health.events[1], "leaving for the mt-metis rung");
}

TEST(HarnessLadder, RestartThenSerialRung) {
  // parmetis' shape: one suppressed restart, then the serial rung.
  DriverLadder ladder;
  ladder.row(Failure::kAudit) = suppressed_restart_row();
  ladder.row(Failure::kAudit).steps.push_back(
      {.verdict = LadderStep::kNextRung});
  ladder.serial_rung_head = "stub: restart failed audit";
  PartitionOptions opts = ladder_options(true);
  opts.audit_level = AuditLevel::kPhase;
  const KindCase audit = kind_cases()[0];
  Stub stub{audit.thrower, /*fails=*/-1};
  const PartitionResult r = run_stub(stub, ladder, opts);
  EXPECT_EQ(stub.calls, 2);
  EXPECT_EQ(r.health.events,
            (std::vector<std::string>{
                std::string("rollback: whole-run restart with corruption "
                            "suppressed (") + audit.what + ")",
                std::string("stub: restart failed audit (") + audit.what +
                    "); whole-run serial fallback with corruption suppressed",
                "fault: corruption injection suppressed"}));
  EXPECT_EQ(r.health.rollbacks, 2u);
  EXPECT_EQ(r.health.fallbacks, 2u);
  EXPECT_GT(r.health.audits_run, 0u);  // the serial run's own audits
  EXPECT_EQ(
      validate_partition(ladder_graph(), r.partition, r.cut, r.balance), "");
  // Without an injector the same failure is a bug and propagates.
  Stub unarmed{audit.thrower, /*fails=*/-1};
  opts.fault_spec.clear();
  EXPECT_THROW((void)run_stub(unarmed, ladder, opts), AuditError);
  EXPECT_EQ(unarmed.calls, 1);
}

TEST(HarnessLadder, UsedUpStepsRethrowTheLastFailure) {
  // metis' shape: one suppressed restart and no rung after it.
  DriverLadder ladder;
  ladder.row(Failure::kAudit) = suppressed_restart_row();
  Stub stub{kind_cases()[0].thrower, /*fails=*/-1};
  EXPECT_THROW((void)run_stub(stub, ladder, ladder_options(true)),
               AuditError);
  EXPECT_EQ(stub.calls, 2);
}

TEST(HarnessLadder, SharedRestartBudget) {
  // mt-metis' shape: an audit restart spends the task restart too.
  for (const bool shared : {true, false}) {
    DriverLadder ladder;
    ladder.row(Failure::kAudit) = suppressed_restart_row();
    ladder.row(Failure::kTask) = {.steps = {{.note = "task retry ({})"}}};
    ladder.shared_restarts = shared;
    int calls = 0;
    const auto thrower = kind_cases()[0].thrower;
    Stub stub{[&] {
                if (calls++ == 0) thrower();
                throw ThreadPoolTaskError("task boom");
              },
              /*fails=*/2};
    if (shared) {
      EXPECT_THROW((void)run_stub(stub, ladder, ladder_options(true)),
                   ThreadPoolTaskError);
      EXPECT_EQ(stub.calls, 2);
    } else {
      const PartitionResult r = run_stub(stub, ladder, ladder_options(true));
      EXPECT_EQ(stub.calls, 3);
      EXPECT_EQ(r.health.events.size(), 3u);  // 2 notes + suppression
    }
  }
}

}  // namespace
}  // namespace gp
