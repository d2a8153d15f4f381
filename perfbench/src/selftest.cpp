// The benchmark's own tests (run by `ctest` in the benchmark build):
//
//   determinism  — at threads = ranks = host workers = 1, two runs give
//                  byte-identical non-wall fields (modeled seconds, cut,
//                  ledger counts, partition FNV, replay counts);
//   tiling       — a replayed V-cycle's layer spans cover its span to
//                  within a few percent;
//   schedule     — a seed fixes the open-loop arrival schedule and the
//                  request mix;
//   steal filter — the wall-time metrics' calls are chosen by host steal,
//                  never by latency;
//   output check — corrupted results are rejected.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "gen/generators.hpp"
#include "layers.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Every "error" field in deterministic_fields() output is empty.
bool all_valid(const std::string& s) {
  for (std::size_t pos = s.find("error"); pos != std::string::npos;
       pos = s.find("error", pos + 1)) {
    if (s.compare(pos, 7, "error=\n") != 0) return false;
  }
  return true;
}

void test_determinism() {
  for (const char* w : {"mesh-gpu", "roads-par"}) {
    const std::string a = perfbench::deterministic_fields(w, 7, 2);
    const std::string b = perfbench::deterministic_fields(w, 7, 2);
    check(a == b, std::string(w) + ": non-wall fields identical at 1 thread");
    check(all_valid(a), std::string(w) + ": every output valid");
    if (a != b) std::printf("--- first\n%s--- second\n%s", a.c_str(), b.c_str());
  }
}

void test_tiling() {
  const perfbench::BatchSpec spec = perfbench::batch_spec("mesh-gpu");
  const gp::CsrGraph g = gp::make_paper_graph(spec.graph, spec.scale, 3);
  perfbench::Tracer tr;
  std::vector<std::string> errors;
  gp::PartitionOptions o = spec.opts;
  o.seed = 3;
  const int gp_root = perfbench::replay_gp_vcycle(tr, g, o, 1, errors);
  const int mt_root = perfbench::replay_mt_vcycle(tr, g, o, 2, errors);
  for (const int root : {gp_root, mt_root}) {
    const double total = tr.spans()[static_cast<std::size_t>(root)].seconds();
    const double self = tr.self_seconds(root);
    char what[160];
    std::snprintf(what, sizeof(what),
                  "%s: layer spans cover %.2f%% of the V-cycle span",
                  tr.spans()[static_cast<std::size_t>(root)].name.c_str(),
                  100.0 * (total - self) / total);
    check(total > 0 && self <= 0.05 * total, what);
  }
  check(tr.total_count("hybrid.match", "vertices") > 0,
        "gp replay ran GPU coarsening levels");
  // Like the drivers, the replays build each gain cache once and project
  // it per level: one build plus one projection per finer level.
  auto spans_named = [&](const char* name) {
    int n = 0;
    for (const perfbench::Span& s : tr.spans()) n += s.name == name;
    return n;
  };
  check(spans_named("hybrid.gaincache") == spans_named("hybrid.project") + 1,
        "gp replay builds the GPU gain cache once, then projects it");
  check(spans_named("mt.gaincache") == spans_named("mt.project") + 2,
        "each mt middle builds its gain cache once, then projects it");
  check(errors.empty(), "replayed partitions are valid");
  for (const std::string& e : errors) std::printf("  %s\n", e.c_str());
}

void test_steal_filter() {
  // Wall times are chosen to contradict the steal order: if the filter
  // looked at latency it would keep the fast, stolen calls instead.
  auto calls = [](std::vector<std::pair<double, double>> steal_wall) {
    std::vector<perfbench::CallRecord> out;
    for (const auto& [steal, wall] : steal_wall) {
      perfbench::CallRecord c;
      c.steal_share = steal;
      c.wall_s = wall;
      out.push_back(c);
    }
    return out;
  };
  const auto quiet = perfbench::undisturbed(
      calls({{0.0, 5}, {0.05, 1}, {0.01, 6}, {0.30, 0.5}, {0.02, 7}}));
  check(quiet.size() == 3 && quiet[0].wall_s == 5 && quiet[1].wall_s == 6 &&
            quiet[2].wall_s == 7,
        "steal filter keeps the calls at <= 2% steal, whatever their latency");
  const auto stolen = perfbench::undisturbed(calls(
      {{0.09, 1}, {0.05, 9}, {0.30, 2}, {0.07, 3}, {0.20, 4}, {0.06, 8},
       {0.08, 5}, {0.10, 6}}));
  check(stolen.size() == 2 && stolen[0].wall_s == 9 && stolen[1].wall_s == 8,
        "in a steal episode it keeps the least-stolen quarter");
}

bool same(const std::vector<perfbench::Arrival>& a,
          const std::vector<perfbench::Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at_s != b[i].at_s || a[i].graph != b[i].graph ||
        a[i].driver != b[i].driver || a[i].fault != b[i].fault ||
        a[i].seed != b[i].seed) {
      return false;
    }
  }
  return true;
}

void test_schedule() {
  const auto a = perfbench::make_schedule(11, 200, 5, 0);
  const auto b = perfbench::make_schedule(11, 200, 5, 0);
  const auto c = perfbench::make_schedule(12, 200, 5, 0);
  const auto d = perfbench::make_schedule(11, 200, 5, 1);
  check(same(a, b), "same seed: identical arrivals and request mix");
  check(!same(a, c), "another seed: another schedule");
  check(!same(a, d), "another stream: another schedule");
  // Block-randomized mix: each block of 12 holds every (graph, driver)
  // pair once, each block of 20 holds exactly one fault request.
  bool blocks_exact = a.size() >= 240;
  for (std::size_t b = 0; b + 12 <= a.size(); b += 12) {
    int seen[12] = {};
    for (std::size_t i = b; i < b + 12; ++i) ++seen[a[i].graph * 3 + a[i].driver];
    for (const int x : seen) blocks_exact = blocks_exact && x == 1;
  }
  for (std::size_t b = 0; b + 20 <= a.size(); b += 20) {
    int faults = 0;
    for (std::size_t i = b; i < b + 20; ++i) faults += a[i].fault;
    blocks_exact = blocks_exact && faults == 1;
  }
  const double n = static_cast<double>(a.size());
  check(n > 800 && n < 1200, "about rate x duration arrivals");
  check(blocks_exact,
        "every pooled graph x driver once per 12 requests, one fault per 20");
}

void test_output_check() {
  const perfbench::BatchSpec spec = perfbench::batch_spec("mesh-gpu");
  const gp::CsrGraph g = gp::make_paper_graph("delaunay", 0.002, 1);
  gp::PartitionOptions o = spec.opts;
  o.k = 8;
  gp::PartitionResult r;
  const perfbench::CallRecord ok = perfbench::run_call("metis", g, o, nullptr, &r);
  check(ok.error.empty(), "a valid result passes the output check");
  gp::PartitionResult bad_cut = r;
  bad_cut.cut += 1;
  check(!perfbench::check_result(g, o, bad_cut).empty(),
        "a wrong stored cut is rejected");
  gp::PartitionResult bad_part = r;
  bad_part.partition.where[0] = o.k;
  check(!perfbench::check_result(g, o, bad_part).empty(),
        "an out-of-range part id is rejected");
  gp::PartitionResult leaked = r;
  leaked.exec.pool_leaked_blocks = 1;
  check(!perfbench::check_result(g, o, leaked).empty(),
        "a leaked pool block is rejected");
  gp::PartitionResult scrambled = r;
  for (auto& p : scrambled.partition.where) p = p < 4 ? 0 : p;
  scrambled.cut = gp::edge_cut(g, scrambled.partition);
  scrambled.balance = gp::partition_balance(g, scrambled.partition);
  check(!perfbench::check_result(g, o, scrambled).empty(),
        "a corruption-scale imbalance is rejected");
  check(ok.balanced && ok.balance <= perfbench::balance_limit(g, o),
        "metis on a small delaunay graph meets 1 + eps + granularity");
}

}  // namespace

int main() {
  test_steal_filter();
  test_schedule();
  test_output_check();
  test_tiling();
  test_determinism();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
