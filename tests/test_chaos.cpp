// Tests for src/chaos: campaign determinism, shrinker convergence, the
// mem-cap capacity squeeze, and the generated-spec grammar property.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/shrink.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "gen/generators.hpp"
#include "hybrid/gp_partitioner.hpp"
#include "util/fault.hpp"

namespace gp {
namespace {

// ------------------------------------------------------------- determinism

TEST(Chaos, SameSeedSameLedger) {
  ChaosConfig cfg;
  cfg.seed = 42;
  cfg.specs = 12;
  cfg.systems = {"metis", "mt-metis", "gp-metis"};
  cfg.graph_n = 300;
  const ChaosReport a = chaos_campaign(cfg);
  const ChaosReport b = chaos_campaign(cfg);
  EXPECT_EQ(a.runs.size(), 36u);
  EXPECT_EQ(a.ledger(), b.ledger());  // byte-identical
  EXPECT_EQ(a.violations, 0u);
}

TEST(Chaos, DifferentSeedsDifferentSpecs) {
  // Not a hard guarantee for any single index, but across 20 indices two
  // seeds colliding on every spec would mean the generator ignores the
  // seed entirely.
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (chaos_generate_spec(1, i, 3) != chaos_generate_spec(2, i, 3))
      ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Chaos, GeneratedSpecsAlwaysParse) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    for (int i = 0; i < 200; ++i) {
      const std::string spec = chaos_generate_spec(seed, i, 4);
      ASSERT_FALSE(spec.empty());
      FaultPlan plan;
      ASSERT_NO_THROW(plan = FaultPlan::parse(spec))
          << "seed=" << seed << " i=" << i << " spec=" << spec;
      EXPECT_FALSE(plan.empty());
      // Round trip: printing and reparsing is the identity on the string.
      EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(),
                plan.to_string());
    }
  }
}

// --------------------------------------------------------------- shrinker

// Synthetic oracle: fails iff an alloc rule with at >= 4 AND any task rule
// are both present.  The planted haystack has three irrelevant clauses.
bool alloc4_and_task(const FaultPlan& p) {
  bool alloc_ge4 = false, has_task = false;
  for (const auto& r : p.rules) {
    if (r.site == FaultSite::kAlloc && r.at >= 4) alloc_ge4 = true;
    if (r.site == FaultSite::kTask) has_task = true;
  }
  return alloc_ge4 && has_task;
}

TEST(ChaosShrink, ConvergesToMinimalReproducer) {
  const auto initial = FaultPlan::parse(
      "kernel@1;alloc@7;flip:p=0.5;task@9;mem-cap=262144");
  const ShrinkResult s = shrink_fault_plan(initial, alloc4_and_task);
  EXPECT_TRUE(s.converged);
  EXPECT_EQ(s.spec, "alloc@4;task@0");
  EXPECT_TRUE(alloc4_and_task(s.plan));  // the minimum still reproduces
  EXPECT_LT(s.probes, 40);
}

TEST(ChaosShrink, NonReproducingInputIsFlagged) {
  const auto initial = FaultPlan::parse("kernel@1");
  const ShrinkResult s =
      shrink_fault_plan(initial, [](const FaultPlan&) { return false; });
  EXPECT_FALSE(s.converged);
  EXPECT_EQ(s.spec, "kernel@1");  // handed back unchanged
  EXPECT_EQ(s.probes, 1);
}

TEST(ChaosShrink, ScalarShrinkFindsExactBoundary) {
  // Oracle sensitive only to the kernel occurrence count: fails for
  // at >= 13.  Halving alone cannot land on 13; the step-down must.
  const auto initial = FaultPlan::parse("kernel@100;msg@5");
  const ShrinkResult s = shrink_fault_plan(initial, [](const FaultPlan& p) {
    for (const auto& r : p.rules) {
      if (r.site == FaultSite::kKernel && r.at >= 13) return true;
    }
    return false;
  });
  EXPECT_TRUE(s.converged);
  EXPECT_EQ(s.spec, "kernel@13");
}

TEST(ChaosShrink, ProbabilityHalvesTowardFloor) {
  const auto initial = FaultPlan::parse("flip:p=0.5");
  const ShrinkResult s = shrink_fault_plan(
      initial, [](const FaultPlan& p) { return !p.rules.empty(); });
  EXPECT_TRUE(s.converged);
  ASSERT_EQ(s.plan.rules.size(), 1u);
  // Any probability still fails, so the shrinker halves to the floor.
  EXPECT_LT(s.plan.rules[0].p, 0.002);
  EXPECT_GE(s.plan.rules[0].p, 0.0009);
}

TEST(ChaosShrink, DeviceLossTriggerShrinks) {
  const auto initial = FaultPlan::parse("device0:lost@64;alloc@3");
  const ShrinkResult s = shrink_fault_plan(initial, [](const FaultPlan& p) {
    return !p.device_losses.empty() && p.device_losses[0].after_ops >= 10;
  });
  EXPECT_TRUE(s.converged);
  EXPECT_EQ(s.spec, "device0:lost@10");
}

// ---------------------------------------------------------- mem-cap squeeze

TEST(Chaos, MemCapSqueezeForcesPoolOomAndRecovers) {
  // A cap big enough to admit level 0 but too small for the V-cycle's
  // working set: the buffer pool hits the injected OOM mid-run and the
  // ladder (handoff raise -> CPU fallback) must still produce a valid
  // partition with a degradation trail.
  const CsrGraph g = delaunay_graph(4000, /*seed=*/3);
  PartitionOptions opts;
  opts.k = 4;
  opts.threads = 1;
  opts.gpu_host_workers = 1;
  opts.gpu_cpu_threshold = 500;
  opts.fault_spec = "mem-cap=300000";
  opts.fault_seed = 9;
  const PartitionResult r = gp_metis_run(g, opts, nullptr);
  EXPECT_TRUE(validate_partition(g, r.partition, r.cut, r.balance).empty());
  EXPECT_TRUE(r.health.degraded);
  EXPECT_GE(r.health.faults_injected, 1u);
  bool saw_cap = false;
  for (const auto& e : r.health.events) {
    if (e.find("mem-cap") != std::string::npos) saw_cap = true;
  }
  EXPECT_TRUE(saw_cap) << "expected a mem-cap event in the health trail";
  EXPECT_EQ(r.exec.pool_leaked_blocks, 0);
}

TEST(Chaos, MemCapViaCampaignRunner) {
  ChaosConfig cfg;
  cfg.graph_n = 2000;
  const ChaosRun run = chaos_run_spec(chaos_make_graph(cfg), cfg, "gp-metis",
                                      "mem-cap=200000", /*fault_seed=*/5);
  EXPECT_TRUE(run.verdict == ChaosVerdict::kValid ||
              run.verdict == ChaosVerdict::kDegraded ||
              run.verdict == ChaosVerdict::kTypedError)
      << "oracle violation: " << run.detail;
  EXPECT_EQ(run.leaked_blocks, 0);
}

TEST(Chaos, ParanoidAuditsRejectCorruptedDownloads) {
  // Regression: gp-metis' paranoid audits re-download the match, the fine
  // graph and the labels, and each d2h copy is a flip site.  The first
  // seed corrupts the match (validate_cmap indexed by it and segfaulted),
  // then the fine graph's offsets (audit_contraction walked them); the
  // second corrupts the graph behind the gain-cache cross-check.  Each
  // audit must reject the copy and the ladder recover.
  ChaosConfig cfg;
  cfg.audit = AuditLevel::kParanoid;
  const CsrGraph g = chaos_make_graph(cfg);
  const struct {
    const char* spec;
    std::uint64_t fault_seed;
  } cases[] = {{"flip:p=0.05", 12526488472942245107ULL},
               {"payload:p=0.002;flip:p=0.02;h2d@1", 5404640300855603997ULL}};
  for (const auto& c : cases) {
    const ChaosRun run =
        chaos_run_spec(g, cfg, "gp-metis", c.spec, c.fault_seed);
    EXPECT_NE(run.verdict, ChaosVerdict::kViolation)
        << c.spec << ": " << run.detail;
    EXPECT_GT(run.audits_failed, 0u) << c.spec;
  }
}

// ------------------------------------------------------------------ oracle

TEST(Chaos, VerdictNamesAreStable) {
  // The ledger is diffed byte-for-byte by the determinism gate; renaming
  // a verdict silently breaks recorded ledgers.
  EXPECT_STREQ(chaos_verdict_name(ChaosVerdict::kValid), "valid");
  EXPECT_STREQ(chaos_verdict_name(ChaosVerdict::kDegraded), "degraded");
  EXPECT_STREQ(chaos_verdict_name(ChaosVerdict::kTypedError), "typed-error");
  EXPECT_STREQ(chaos_verdict_name(ChaosVerdict::kViolation), "VIOLATION");
}

TEST(Chaos, CleanSpecYieldsValidVerdict) {
  ChaosConfig cfg;
  cfg.graph_n = 300;
  const ChaosRun run = chaos_run_spec(chaos_make_graph(cfg), cfg, "metis",
                                      "", /*fault_seed=*/1);
  EXPECT_EQ(run.verdict, ChaosVerdict::kValid);
  EXPECT_GT(run.cut, 0);
}

}  // namespace
}  // namespace gp
