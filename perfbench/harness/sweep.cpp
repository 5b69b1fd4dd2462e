// sweep: the researcher's batch path. The full dissem::dissem_matrix — 2
// layer tables x 3 mobility kinds x 5 campaigns x 4 intensities = 120
// cells — runs as one batch on sim::ParallelRunner with kWorkers workers,
// repeated for the run's duration. Cell seeds derive from the workload
// seed.
//
// Checks: every batch yields the same merged digest; a sampled subset of
// cells re-runs serially (workers = 0) to the same digests; and for the
// default seed the merged digest equals the pinned value.

#include <cinttypes>
#include <cstdio>

#include "common.h"
#include "dissem/scenario.h"
#include "sim/rng.h"
#include "sim/runner.h"

namespace perfbench {
namespace {

using namespace iobt;

/// Merged digest of the matrix for kDefaultSeed. A change that alters any
/// cell's outcome changes it; a pure-speed change must not.
constexpr std::uint64_t kPinnedDigest = 0xeaea4b9009fe3febULL;
constexpr std::size_t kSerialRechecks = 6;
constexpr int kSetupRepeats = 9;

struct Cell {
  dissem::DissemSpec spec;
  std::uint64_t seed = 0;
};


std::vector<Cell> build_cells(std::uint64_t workload_seed) {
  const std::uint64_t base = sim::Rng(workload_seed).child("perfbench.sweep").next_u64();
  const sim::ScenarioMatrix matrix = dissem::dissem_matrix(base);
  std::vector<Cell> cells;
  for (const sim::ScenarioCell& c : matrix.all_cells()) {
    cells.push_back({dissem::spec_for_cell(c), c.seed});
  }
  return cells;
}

std::uint64_t run_cell(const Cell& cell, OpTrace& t) {
  const int root = t.open("cell", "other", -1);
  const int build = t.open("dissem.DissemScenario", "build", root);
  dissem::DissemScenario s(cell.spec, cell.seed);
  t.close(build);
  TagTotals before;
  if (t.on()) {
    s.sim.set_profiling(true);
    before = tag_totals(s.sim);
  }
  const int run = t.open("dissem.run_to_horizon", "sim", root);
  s.run_to_horizon();
  t.close(run);
  if (t.on()) t.add_kernel(run, before, tag_totals(s.sim));
  const int reduce = t.open("dissem.outcome", "dissem", root);
  const dissem::DissemOutcome out = s.outcome();
  t.close(reduce);
  t.close(root);
  return out.digest;
}

struct Batch {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double rep_sum_ms = 0.0;
  double rep_max_ms = 0.0;
  std::vector<double> rep_ms;
  std::vector<std::uint64_t> digests;
  std::uint64_t digest = 0;
  std::size_t failures = 0;
};

Batch run_batch(const std::vector<Cell>& cells, std::size_t workers, bool traced,
                SpanLog* log) {
  std::vector<std::uint64_t> seeds;
  for (const Cell& c : cells) seeds.push_back(c.seed);
  const sim::ParallelRunner runner(workers);
  const double cpu0 = cpu_ms();
  const auto out = runner.run<std::uint64_t>(seeds, [&](sim::ReplicationContext& ctx) {
    OpTrace t(traced, ctx.index);
    const std::uint64_t r = run_cell(cells[ctx.index], t);
    if (log) log->append(t);
    return r;
  });
  Batch b;
  b.cpu_ms = cpu_ms() - cpu0;
  b.wall_ms = out.wall_ms;
  b.failures = out.failures;
  for (const auto& rep : out.replications) {
    b.rep_ms.push_back(rep.wall_ms);
    b.rep_sum_ms += rep.wall_ms;
    b.rep_max_ms = std::max(b.rep_max_ms, rep.wall_ms);
    b.digests.push_back(rep.payload);
    b.digest = fold_digest(b.digest, rep.ok ? rep.payload : 0);
  }
  return b;
}

}  // namespace

void run_sweep(const RunConfig& cfg, Report& report) {
  // ---- set-up: matrix and scenario build, repeated; median reported ----
  std::vector<double> setup_s;
  std::vector<Cell> cells;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = wall_ms();
    cells = build_cells(cfg.seed);
    for (const Cell& c : cells) dissem::DissemScenario s(c.spec, c.seed);
    setup_s.push_back((wall_ms() - t0) / 1e3);
  }

  // ---- measured phase ----------------------------------------------------
  // Traced runs alternate untraced and traced batches over the same cells,
  // so trace.overhead compares like with like.
  SpanLog log;
  std::vector<Batch> plain, traced;
  const double start = wall_ms();
  for (std::size_t n = 0; plain.empty() || (cfg.trace && traced.empty()) ||
                          wall_ms() - start < cfg.seconds * 1e3;
       ++n) {
    const bool trace_this = cfg.trace && n % 2 == 1;
    Batch b = run_batch(cells, kWorkers, trace_this, trace_this ? &log : nullptr);
    report.attempted(cells.size());
    if (b.failures > 0) report.fail("sweep batch had " + std::to_string(b.failures) + " failed cells");
    (trace_this ? traced : plain).push_back(std::move(b));
  }

  // ---- output checks -----------------------------------------------------
  const Batch& ref = plain.front();
  for (const auto* set : {&plain, &traced}) {
    for (const Batch& b : *set) {
      if (b.digest != ref.digest) report.fail("sweep merged digest differs between batches");
    }
  }
  std::vector<Cell> sample;
  std::vector<std::size_t> sample_index;
  for (std::size_t k = 0; k < kSerialRechecks; ++k) {
    const std::size_t i = (k * cells.size() / kSerialRechecks + cfg.seed % 20) % cells.size();
    sample.push_back(cells[i]);
    sample_index.push_back(i);
  }
  const Batch serial = run_batch(sample, 0, false, nullptr);
  report.attempted(sample.size());
  for (std::size_t k = 0; k < sample.size(); ++k) {
    if (serial.digests[k] != ref.digests[sample_index[k]]) {
      report.fail("sweep cell " + std::to_string(sample_index[k]) +
                  " differs when re-run serially");
    }
  }
  std::optional<std::uint64_t> expected = cfg.expect_digest;
  if (!expected && cfg.seed == kDefaultSeed) expected = kPinnedDigest;
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, ref.digest);
  report.note("merged_digest", hex);
  if (expected.has_value() && expected.value() != ref.digest) {
    report.fail(std::string("sweep merged digest ") + hex + " != expected");
  }

  // ---- metrics -----------------------------------------------------------
  // Medians over batches, and each cell's median over batches, so that a
  // slow spell of the host during one batch does not move the figures.
  const auto n_cells = static_cast<double>(cells.size());
  std::vector<double> rate, cpu;
  std::vector<std::vector<double>> rep_ms;
  for (const Batch& b : plain) {
    rate.push_back(1e3 * n_cells / b.wall_ms);
    cpu.push_back(b.cpu_ms / n_cells);
    rep_ms.push_back(b.rep_ms);
  }
  const std::vector<double> cell_ms = item_medians(rep_ms);
  report.info("cells_per_s", median(rate), "1/s");
  report.info("fail_share", static_cast<double>(report.failed_count()) /
                                static_cast<double>(report.attempted_count()), "ratio");
  report.info("batches", static_cast<double>(plain.size() + traced.size()), "count");
  report.info("cell_samples", static_cast<double>(cell_ms.size()), "count");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("cpu_ms_per_op", median(cpu), "ms");
  report.metric("ops_per_s", median(rate), "1/s");
  report.metric("op_p50_ms", percentile(cell_ms, 0.50), "ms");
  report.info("cell_p99_ms", percentile(cell_ms, 0.99), "ms");

  if (!cfg.trace) return;
  std::vector<double> plain_wall, traced_wall, util, traced_rep, rep_max;
  for (const Batch& b : plain) plain_wall.push_back(b.wall_ms);
  for (const Batch& b : traced) {
    traced_wall.push_back(b.wall_ms);
    util.push_back(b.rep_sum_ms / (static_cast<double>(kWorkers) * b.wall_ms));
    traced_rep.insert(traced_rep.end(), b.rep_ms.begin(), b.rep_ms.end());
    rep_max.push_back(b.rep_max_ms);
  }
  const double n_ops = static_cast<double>(log.ops());
  report.layer("runner.utilization", mean(util), "ratio");
  report.layer("runner.rep_ms_p50", median(traced_rep), "ms");
  report.layer("runner.rep_ms_max", median(rep_max), "ms");
  report.layer("security.attack_ms", log.tag_busy_ms("attack.") / n_ops, "ms");
  report.layer("trace.overhead", median(traced_wall) / median(plain_wall), "ratio");
  log.report_layers(report);
  const std::string path = cfg.work_dir + "/spans-sweep.json";
  if (!log.write_json(path)) report.fail("could not write " + path);
  report.note("spans", path);
}

}  // namespace perfbench
