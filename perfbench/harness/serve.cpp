// serve: the commander's what-if stream, as an open loop against one
// serve::CampaignService with kWorkers workers and a disk tier.
//
// Inputs, all drawn from the workload seed: prefix popularity is Zipf over
// kPrefixes prefixes, more than the cache holds, plus a fresh prefix every
// kFreshEvery queries, so memory hits, disk re-warms and cold prefix
// simulations all keep happening; deltas cycle through the four attack
// campaigns. One generator thread releases queries
// at Poisson arrival times; the service loop, whenever a submit() returns,
// submits every query that came due meanwhile as the next batch. Each query
// is timed from its due time, so queueing behind a slow batch counts.
//
// Phases: kLowQps and kHighQps, kQueriesPerRate queries each, so p99 has
// at least ten samples beyond it; a closed loop of single queries for the
// unloaded latency; kFloods floods at kCeilingQps, whose completion rate is
// the capacity; then a search for max_qps_at_slo: rungs of the same size at
// rates that bisect (in log rate) the bracket between a passing rung and a
// failing one. A rung passes when its p99 meets kSloMs and its backlog does
// not grow; a rung is abandoned as failed once a query has waited
// kAbortWaitMs. The schedule, not --seconds, sets the run's length (about
// 30 s), except that a tiny run uses kTinyQueriesPerRate.
//
// Checks: every submitted query is answered (no failure, no shed query),
// and sampled answers are digest-identical to CampaignService::run_uncached.
//
// The traced run adds a replay of sampled queries through the public calls
// the service makes — stack build, prefix run, checkpoint save/restore,
// snapshot encode/decode, SnapshotStore put/get, branch run — with the
// kernel profiler on, which attributes the hit path layer by layer.

#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <thread>
#include <utility>

#include "common.h"
#include "dissem/scenario.h"
#include "serve/serve.h"
#include "serve/snapshot_store.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace iobt;

constexpr double kHorizonS = 40.0;
constexpr double kBranchS = 35.0;
constexpr std::int64_t kPrefixes = 48;
constexpr double kZipfExponent = 1.0;
/// Every kFreshEvery-th query is about a battlefield never asked about
/// before: it costs a cold prefix simulation and a disk write. Fixed
/// positions keep the cold share the same on every seed.
constexpr std::size_t kFreshEvery = 64;
constexpr std::size_t kCacheCapacity = 16;
constexpr std::size_t kQueriesPerRate = 1000;
/// Queries per rate of a tiny run (--seconds below kFullRunSeconds): a
/// smoke test of the pipeline whose p99 has too few samples to mean much.
constexpr std::size_t kTinyQueriesPerRate = 110;
constexpr double kFullRunSeconds = 10.0;
constexpr double kSloMs = 250.0;
constexpr double kAbortWaitMs = 5 * kSloMs;
constexpr double kLowQps = 100.0;
constexpr double kHighQps = 150.0;
/// max_qps_at_slo searches the rates between the high rate and kCeilingQps
/// by log-bisection, kProbes rungs deep.
constexpr double kCeilingQps = 2000.0;
constexpr int kProbes = 4;
/// Floods at kCeilingQps whose median completion rate is the capacity.
constexpr int kFloods = 3;
/// Answers per phase checked against run_uncached (low and high phases).
constexpr std::size_t kCheckedPerPhase = 4;
constexpr int kSetupRepeats = 5;
/// Hit-path replay passes over the checked queries, alternating untraced
/// and traced (trace.overhead compares the two halves).
constexpr int kReplayPasses = 10;

dissem::DissemSpec base_spec() {
  dissem::DissemSpec spec;
  spec.name = "perfbench-serve";
  spec.layers = dissem::ground_aerial_layers();
  spec.mobility = dissem::MobilityKind::kWaypoint;
  spec.horizon_s = kHorizonS;
  return spec;
}

/// The generated query stream: query i's prefix rank and delta.
class QueryStream {
 public:
  explicit QueryStream(std::uint64_t seed)
      : rng_(sim::Rng(seed).child("perfbench.serve")),
        popularity_(rng_.child("popularity")),
        spec_(base_spec()) {}

  serve::Query query(std::size_t rank, std::size_t i) const {
    static constexpr dissem::AttackCampaign kCycle[] = {
        dissem::AttackCampaign::kJamming, dissem::AttackCampaign::kRegionStrike,
        dissem::AttackCampaign::kGatewayHunt, dissem::AttackCampaign::kCombined};
    serve::Query q;
    q.spec = spec_;
    q.seed = rng_.child("prefix").child(rank).next_u64();
    q.branch_time_s = kBranchS;
    q.delta.attack = kCycle[i % 4];
    q.delta.intensity = 0.3 + 0.05 * static_cast<double>(i % 8);
    q.delta.salt = i;
    return q;
  }

  /// The next `n` queries of the stream (global indices continue). The
  /// popular prefixes appear in Zipf proportion exactly, in seeded order,
  /// so every seed offers the same mix.
  std::vector<serve::Query> next(std::size_t n) {
    std::vector<std::size_t> ranks;
    for (std::size_t i = issued_; i < issued_ + n; ++i) {
      if (i % kFreshEvery != kFreshEvery - 1) ranks.push_back(0);
    }
    assign_zipf(ranks);
    popularity_.shuffle(ranks);
    std::vector<serve::Query> out;
    for (std::size_t k = 0, popular = 0; k < n; ++k, ++issued_) {
      const std::size_t rank = issued_ % kFreshEvery == kFreshEvery - 1
                                   ? static_cast<std::size_t>(kPrefixes) + fresh_++
                                   : ranks[popular++];
      out.push_back(query(rank, issued_));
    }
    return out;
  }

  /// Poisson arrival offsets (ms) of `n` queries at `qps`, for phase `phase`.
  std::vector<double> arrivals(std::size_t phase, double qps, std::size_t n) const {
    sim::Rng r = rng_.child("arrivals").child(phase);
    std::vector<double> at;
    double t = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      t += 1e3 * r.exponential(qps);
      at.push_back(t);
    }
    return at;
  }

 private:
  sim::Rng rng_;
  sim::Rng popularity_;
  dissem::DissemSpec spec_;
  std::size_t issued_ = 0;
  std::size_t fresh_ = 0;

  /// Fills `slots` with ranks in Zipf proportion (largest remainder).
  static void assign_zipf(std::vector<std::size_t>& slots) {
    std::vector<double> share;
    double total = 0.0;
    for (std::int64_t r = 1; r <= kPrefixes; ++r) {
      share.push_back(1.0 / std::pow(static_cast<double>(r), kZipfExponent));
      total += share.back();
    }
    std::vector<std::pair<double, std::size_t>> remainder;
    std::size_t next = 0;
    for (std::size_t r = 0; r < share.size(); ++r) {
      const double want = share[r] / total * static_cast<double>(slots.size());
      for (auto c = static_cast<std::size_t>(want); c > 0; --c) slots[next++] = r;
      remainder.emplace_back(want - std::floor(want), r);
    }
    std::sort(remainder.rbegin(), remainder.rend());
    for (std::size_t k = 0; next < slots.size(); ++k) slots[next++] = remainder[k].second;
  }
};

/// One generator thread releasing query indices at their due times.
class ArrivalGenerator {
 public:
  ArrivalGenerator(double t0_ms, const std::vector<double>& offsets_ms)
      : enqueued_ms_(offsets_ms.size(), 0.0),
        thread_([this, t0_ms, offsets_ms] { release(t0_ms, offsets_ms); }) {}
  ArrivalGenerator(const ArrivalGenerator&) = delete;
  ArrivalGenerator& operator=(const ArrivalGenerator&) = delete;
  ~ArrivalGenerator() {
    stop();
    thread_.join();
  }

  /// Blocks until queries are due; returns them, or empty once all are.
  std::vector<std::size_t> take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !ready_.empty() || done_; });
    return std::exchange(ready_, {});
  }
  void stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  /// When the generator released query i (ms); valid after take() returned it.
  double enqueued_ms(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return enqueued_ms_[i];
  }

 private:
  void release(double t0_ms, const std::vector<double>& offsets_ms) {
    const auto epoch = std::chrono::steady_clock::time_point{};
    for (std::size_t i = 0; i < offsets_ms.size(); ++i) {
      std::this_thread::sleep_until(
          epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(t0_ms + offsets_ms[i])));
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
      enqueued_ms_[i] = wall_ms();
      ready_.push_back(i);
      cv_.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_one();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> ready_;
  std::vector<double> enqueued_ms_;
  bool done_ = false;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the state it uses exists
};

struct QueryRecord {
  double due = 0, enqueued = 0, start = 0, end = 0;
};

struct Phase {
  double qps = 0.0;
  bool aborted = false;
  std::vector<QueryRecord> records;  ///< submitted queries, in arrival order
  std::vector<double> batch_sizes;
  serve::CampaignService::CacheStats before, after;

  std::vector<double> latency() const {
    std::vector<double> xs;
    for (const auto& r : records) xs.push_back(r.end - r.due);
    return xs;
  }
  bool passes() const {
    return !aborted && percentile(latency(), 0.99) <= kSloMs;
  }
};

/// p99 latency of a rung; a rung abandoned for its backlog counts at
/// kAbortWaitMs.
double rung_p99(const Phase& p) {
  return std::max(percentile(p.latency(), 0.99), p.aborted ? kAbortWaitMs : 0.0);
}

/// Rate where p99 meets the limit, interpolated on log rate and log p99
/// between a passing and a failing rung, so the figure moves smoothly as
/// the boundary moves.
double interpolate_qps(const Phase& pass, const Phase& fail) {
  const double lo = std::max(1e-3, rung_p99(pass));
  const double f = std::clamp(std::log(kSloMs / lo) / std::log(rung_p99(fail) / lo), 0.0, 1.0);
  return pass.qps * std::pow(fail.qps / pass.qps, f);
}

struct Checked {
  serve::Query query;
  std::uint64_t served_digest = 0;
};

Phase run_phase(serve::CampaignService& svc, const std::vector<serve::Query>& queries,
                const std::vector<double>& offsets, double qps, Report& report,
                std::vector<Checked>* checked) {
  Phase p;
  p.qps = qps;
  p.before = svc.cache_stats();
  const double t0 = wall_ms() + 1.0;
  ArrivalGenerator gen(t0, offsets);
  for (;;) {
    const std::vector<std::size_t> idx = gen.take();
    if (idx.empty()) break;
    std::vector<serve::Query> qs;
    for (std::size_t i : idx) qs.push_back(queries[i]);
    const double start = wall_ms();
    const serve::BatchResult res = svc.submit(qs);
    const double end = wall_ms();
    report.attempted(qs.size());
    p.batch_sizes.push_back(static_cast<double>(qs.size()));
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const std::size_t i = idx[k];
      const serve::QueryResult& r = res.results[k];
      if (!r.ok) report.fail("query failed: " + (r.error.empty() ? "rejected" : r.error));
      p.records.push_back({t0 + offsets[i], gen.enqueued_ms(i), start, end});
      if (checked && i % (queries.size() / kCheckedPerPhase) == 7 && r.ok) {
        checked->push_back({queries[i], r.outcome.digest});
      }
    }
    if (start - (t0 + offsets[idx.front()]) > kAbortWaitMs) {
      p.aborted = true;  // the backlog is growing: abandon the rung
      gen.stop();
    }
  }
  p.after = svc.cache_stats();
  return p;
}

serve::CampaignService::Options service_options(const std::string& dir) {
  serve::CampaignService::Options o;
  o.workers = kWorkers;
  o.cache_capacity = kCacheCapacity;
  o.repro_program = "iobt_perfbench";
  o.snapshot_dir = dir;
  return o;
}

/// Builds the service over a wiped disk tier and warms the working set:
/// every popular prefix is simulated and written to disk, and the most
/// recent fill the memory tier. Measured phases then pay cold simulations
/// only for the evenly spaced fresh queries, not for first touches that
/// would cluster by chance.
std::unique_ptr<serve::CampaignService> build_service(const std::string& dir,
                                                      const QueryStream& stream,
                                                      Report& report) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto svc = std::make_unique<serve::CampaignService>(service_options(dir));
  std::vector<serve::Query> working_set;
  for (std::size_t r = kPrefixes; r-- > 0;) working_set.push_back(stream.query(r, r));
  const serve::BatchResult res = svc->submit(working_set);
  if (res.failures + res.rejected > 0) report.fail("working-set warm-up failed");
  return svc;
}

// ------------------------------------------------------------------ replay --

struct ColdReplay {
  std::shared_ptr<const sim::Snapshot> snapshot;
  std::size_t snapshot_bytes = 0;
  bool round_trip = false;  ///< the snapshot came back intact from disk
};

/// The cold path of one query: stack build, prefix run, save, encode, put;
/// then the disk re-warm path: get, scratch stack, decode.
ColdReplay replay_cold(const serve::Query& q, serve::SnapshotStore& store, OpTrace& t) {
  ColdReplay c;
  const std::uint64_t key = serve::prefix_hash(q);
  const int root = t.open("replay.cold", "other", -1);
  int s = t.open("dissem.DissemScenario", "build", root);
  auto stack = std::make_unique<dissem::DissemScenario>(q.spec, q.seed);
  t.close(s);
  if (t.on()) stack->sim.set_profiling(true);
  const TagTotals before = t.on() ? tag_totals(stack->sim) : TagTotals{};
  s = t.open("serve.prefix_sim", "sim", root);
  stack->sim.run_until(sim::SimTime::seconds(q.branch_time_s));
  t.close(s);
  if (t.on()) t.add_kernel(s, before, tag_totals(stack->sim));
  s = t.open("checkpoint.save", "checkpoint", root);
  c.snapshot = std::make_shared<const sim::Snapshot>(stack->sim.checkpoint().save(key));
  t.close(s);
  std::string wire;
  s = t.open("wire.encode", "wire", root);
  const bool encoded = stack->sim.checkpoint().serialize_snapshot(*c.snapshot, wire);
  t.close(s);
  c.snapshot_bytes = encoded ? wire.size() : 0;
  if (encoded) {
    s = t.open("serve.disk_put", "serve", root);
    store.put(key, wire);
    t.close(s);
    std::string bytes;
    s = t.open("serve.disk_get", "serve", root);
    const auto status = store.get(key, bytes);
    t.close(s);
    s = t.open("dissem.DissemScenario", "build", root);
    dissem::DissemScenario scratch(q.spec, q.seed);
    t.close(s);
    s = t.open("wire.decode", "wire", root);
    const auto decoded = scratch.sim.checkpoint().deserialize_snapshot(bytes);
    t.close(s);
    c.round_trip = status == serve::SnapshotStore::GetStatus::kHit && decoded &&
                   decoded->prefix_hash() == key;
  }
  t.close(root);
  return c;
}

/// The hit path of one query: stack build, restore, delta, branch run.
/// Returns the answer's digest.
std::uint64_t replay_hit(const serve::Query& q, const sim::Snapshot& snap, OpTrace& t) {
  const int root = t.open("replay.hit", "other", -1);
  int s = t.open("dissem.DissemScenario", "build", root);
  dissem::DissemScenario stack(q.spec, q.seed);
  t.close(s);
  if (t.on()) stack.sim.set_profiling(true);
  s = t.open("checkpoint.restore", "checkpoint", root);
  stack.sim.checkpoint().restore(snap);
  t.close(s);
  s = t.open("serve.apply_delta", "security", root);
  serve::apply_delta(stack, q);
  t.close(s);
  const TagTotals before = t.on() ? tag_totals(stack.sim) : TagTotals{};
  s = t.open("serve.branch_run", "sim", root);
  stack.sim.run_until(sim::SimTime::seconds(q.spec.horizon_s));
  t.close(s);
  if (t.on()) t.add_kernel(s, before, tag_totals(stack.sim));
  s = t.open("dissem.outcome", "dissem", root);
  const std::uint64_t digest = stack.outcome().digest;
  t.close(s);
  t.close(root);
  return digest;
}

void report_replay(const RunConfig& cfg, const std::vector<Checked>& sample, Report& report) {
  const std::string dir = cfg.work_dir + "/serve-replay";
  std::filesystem::remove_all(dir);
  serve::SnapshotStore store(dir);
  SpanLog cold_log, hit_log;
  std::vector<std::shared_ptr<const sim::Snapshot>> snaps;
  double bytes = 0.0;
  std::uint64_t op = 0;
  for (const Checked& c : sample) {
    OpTrace t(true, op++);
    ColdReplay cold = replay_cold(c.query, store, t);
    if (!cold.round_trip) report.fail("replay: snapshot did not round-trip through the disk tier");
    bytes += static_cast<double>(cold.snapshot_bytes);
    cold_log.append(t);
    snaps.push_back(std::move(cold.snapshot));
  }
  // Hit path, alternating untraced and traced passes for trace.overhead.
  double plain_ms = 0.0, traced_ms = 0.0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const bool traced = pass % 2 == 1;
    const double t0 = wall_ms();
    for (std::size_t k = 0; k < sample.size(); ++k) {
      OpTrace t(traced, op++);
      report.attempted(1);
      if (replay_hit(sample[k].query, *snaps[k], t) != sample[k].served_digest) {
        report.fail("replay: restored branch differs from the served answer");
      }
      if (traced) hit_log.append(t);
    }
    (traced ? traced_ms : plain_ms) += wall_ms() - t0;
  }
  const double n_cold = static_cast<double>(cold_log.ops());
  const double n_hit = static_cast<double>(hit_log.ops());
  report.layer("serve.stack_build_ms", hit_log.span_ms("dissem.DissemScenario") / n_hit, "ms");
  report.layer("serve.prefix_sim_ms", cold_log.span_ms("serve.prefix_sim") / n_cold, "ms");
  report.layer("serve.branch_run_ms", hit_log.span_ms("serve.branch_run") / n_hit, "ms");
  report.layer("serve.disk_put_ms", cold_log.span_ms("serve.disk_put") / n_cold, "ms");
  report.layer("serve.disk_get_ms", cold_log.span_ms("serve.disk_get") / n_cold, "ms");
  report.layer("checkpoint.save_ms", cold_log.span_ms("checkpoint.save") / n_cold, "ms");
  report.layer("checkpoint.restore_ms", hit_log.span_ms("checkpoint.restore") / n_hit, "ms");
  report.layer("wire.encode_ms", cold_log.span_ms("wire.encode") / n_cold, "ms");
  report.layer("wire.decode_ms", cold_log.span_ms("wire.decode") / n_cold, "ms");
  report.layer("wire.snapshot_bytes", bytes / n_cold, "bytes");
  report.layer("security.attack_ms",
               (hit_log.tag_busy_ms("attack.") + hit_log.span_ms("serve.apply_delta")) / n_hit, "ms");
  report.layer("trace.overhead", traced_ms / plain_ms, "ratio");
  hit_log.report_layers(report);
  for (const auto& [log, name] : {std::pair{&cold_log, "cold"}, std::pair{&hit_log, "hit"}}) {
    const std::string path = cfg.work_dir + "/spans-serve-" + name + ".json";
    if (!log->write_json(path)) report.fail("could not write " + path);
  }
  report.note("spans", cfg.work_dir + "/spans-serve-{live,cold,hit}.json");
  std::filesystem::remove_all(dir);
}

/// The service-side view of the low and high-rate phases: queue wait, service
/// time, batching, cache behaviour, generator lateness.
void report_live(const RunConfig& cfg, const std::vector<Phase>& phases, Report& report) {
  const Phase& low = phases.front();
  const Phase& high = phases[1];
  std::vector<double> wait, service, late, batch;
  SpanLog live;
  std::uint64_t op = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    const Phase& p = phases[k];
    for (const QueryRecord& r : p.records) {
      wait.push_back(r.start - r.due);
      service.push_back(r.end - r.start);
      late.push_back(r.enqueued - r.due);
      OpTrace t(true, op++);
      const int root = t.record("query", "other", -1, r.due, r.end);
      t.record("serve.queue_wait", "queue", root, r.due, r.start);
      t.record("serve.submit", "serve", root, r.start, r.end);
      live.append(t);
    }
    batch.insert(batch.end(), p.batch_sizes.begin(), p.batch_sizes.end());
  }
  const auto& s0 = low.before;
  const auto& s1 = high.after;
  const auto hits = static_cast<double>(s1.hits - s0.hits);
  const auto lookups = hits + static_cast<double>(s1.misses - s0.misses + s1.batch_dedup -
                                                  s0.batch_dedup);
  report.layer("serve.query_p50_ms.high", percentile(high.latency(), 0.5), "ms");
  report.layer("serve.query_p99_ms.high", percentile(high.latency(), 0.99), "ms");
  report.layer("serve.queue_wait_ms_p50", percentile(wait, 0.5), "ms");
  report.layer("serve.queue_wait_ms_p99", percentile(wait, 0.99), "ms");
  report.layer("serve.service_ms_p50", percentile(service, 0.5), "ms");
  report.layer("serve.batch_size_mean", mean(batch), "count");
  report.layer("serve.hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  report.layer("serve.disk_hit_rate",
               hits > 0 ? static_cast<double>(s1.disk_hits - s0.disk_hits) / hits : 0.0, "ratio");
  report.layer("serve.prefix_sims", static_cast<double>(s1.misses - s0.misses), "count");
  report.layer("serve.evictions", static_cast<double>(s1.evictions - s0.evictions), "count");
  report.layer("serve.disk_stores", static_cast<double>(s1.disk_stores - s0.disk_stores), "count");
  report.layer("serve.disk_rejects", static_cast<double>(s1.disk_rejects - s0.disk_rejects), "count");
  report.layer("serve.gen_late_ms_p99", percentile(late, 0.99), "ms");
  const std::string path = cfg.work_dir + "/spans-serve-live.json";
  if (!live.write_json(path)) report.fail("could not write " + path);
}

}  // namespace

void run_serve(const RunConfig& cfg, Report& report) {
  const std::string dir = cfg.work_dir + "/serve-snapshots";

  // ---- set-up: service construction + working-set warm-up, repeated -----
  std::vector<double> setup_s;
  std::unique_ptr<serve::CampaignService> svc;
  for (int i = 0; i < kSetupRepeats; ++i) {
    svc.reset();
    const double t0 = wall_ms();
    svc = build_service(dir, QueryStream(cfg.seed), report);
    setup_s.push_back((wall_ms() - t0) / 1e3);
  }

  // ---- measured phase: low, high, then the rate search -------------------
  QueryStream stream(cfg.seed);
  const std::size_t per_rate =
      cfg.seconds >= kFullRunSeconds ? kQueriesPerRate : kTinyQueriesPerRate;
  std::vector<Checked> checked;
  std::vector<Phase> phases;
  const auto run_rate = [&](double qps, std::vector<Checked>* check) {
    const std::vector<serve::Query> qs = stream.next(per_rate);
    phases.push_back(
        run_phase(*svc, qs, stream.arrivals(phases.size(), qps, qs.size()), qps, report, check));
    return phases.size() - 1;
  };
  const double cpu0 = cpu_ms();
  run_rate(kLowQps, &checked);
  run_rate(kHighQps, &checked);
  const double cpu_per_query =
      (cpu_ms() - cpu0) / static_cast<double>(phases[0].records.size() + phases[1].records.size());

  // Unloaded latency: one client submitting one query at a time, so the
  // figure is the service's own path, not queueing behind other queries.
  std::vector<double> closed_ms;
  for (const serve::Query& q : stream.next(per_rate / 2)) {
    const double t0 = wall_ms();
    const serve::BatchResult res = svc->submit({q});
    closed_ms.push_back(wall_ms() - t0);
    report.attempted(1);
    if (!res.results[0].ok) report.fail("query failed: " + res.results[0].error);
  }

  // Capacity: completions per second while queries arrive faster than the
  // service can answer them; the median of kFloods floods.
  std::vector<double> flood_qps;
  for (int i = 0; i < kFloods; ++i) {
    const Phase& flood = phases[run_rate(kCeilingQps, nullptr)];
    flood_qps.push_back(1e3 * static_cast<double>(flood.records.size()) /
                        (flood.records.back().end - flood.records.front().due));
  }
  const double capacity_qps = median(flood_qps);

  // max_qps_at_slo: the highest rate whose p99 meets kSloMs with no growing
  // backlog. Bracket it between a passing rung and a failing one (or the
  // ceiling), halve the bracket kProbes times, interpolate inside it.
  double max_qps = 0.0;
  if (!phases[0].passes()) {
    max_qps = kLowQps * kSloMs / rung_p99(phases[0]);
  } else {
    std::size_t pass = phases[1].passes() ? 1 : 0;
    std::optional<std::size_t> fail;
    if (pass == 0) fail = 1;
    for (int probe = 0; probe < kProbes; ++probe) {
      const double hi = fail ? phases[*fail].qps : kCeilingQps;
      const std::size_t k = run_rate(std::sqrt(phases[pass].qps * hi), nullptr);
      if (phases[k].passes()) {
        pass = k;
      } else {
        fail = k;
      }
    }
    max_qps = fail ? interpolate_qps(phases[pass], phases[*fail]) : phases[pass].qps;
  }

  // ---- output checks: sampled answers against the serial reference -------
  for (const Checked& c : checked) {
    report.attempted(1);
    if (serve::CampaignService::run_uncached(c.query).digest != c.served_digest) {
      report.fail("served answer differs from run_uncached");
    }
  }

  // ---- metrics -----------------------------------------------------------
  const double p50_low = percentile(phases[0].latency(), 0.5);
  const double p99_low = percentile(phases[0].latency(), 0.99);
  report.info("query_p50_ms.low", p50_low, "ms");
  report.info("query_p99_ms.low", p99_low, "ms");
  report.info("query_p50_ms.high", percentile(phases[1].latency(), 0.5), "ms");
  report.info("query_p99_ms.high", percentile(phases[1].latency(), 0.99), "ms");
  report.info("max_qps_at_slo", max_qps, "1/s");
  report.info("capacity_qps", capacity_qps, "1/s");
  report.info("closed_loop_p50_ms", median(closed_ms), "ms");
  report.info("fail_share", static_cast<double>(report.failed_count()) /
                                static_cast<double>(report.attempted_count()), "ratio");
  for (const Phase& p : phases) {
    const std::string tag = "rung_" + std::to_string(static_cast<int>(p.qps)) + ".";
    report.info(tag + "p99_ms", percentile(p.latency(), 0.99), "ms");
    report.info(tag + "queries", static_cast<double>(p.records.size()), "count");
    report.info(tag + "hits", static_cast<double>(p.after.hits - p.before.hits), "count");
    report.info(tag + "evictions", static_cast<double>(p.after.evictions - p.before.evictions), "count");
  }
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // CPU per query over the low and high phases, not the search, whose rungs
  // depend on where it stops. The bounded latency is the closed loop's and
  // the bounded throughput the capacity: under open-loop load, queueing
  // turns every slow spell of the host into a large swing of the latency
  // percentiles and of max_qps_at_slo.
  report.metric("cpu_ms_per_op", cpu_per_query, "ms");
  report.metric("ops_per_s", capacity_qps, "1/s");
  report.metric("op_p50_ms", median(closed_ms), "ms");

  if (cfg.trace) {
    report.layer("serve.query_p50_ms.low", p50_low, "ms");
    report.layer("serve.query_p99_ms.low", p99_low, "ms");
    report.layer("serve.max_qps_at_slo", max_qps, "1/s");
    report_live(cfg, phases, report);
    report_replay(cfg, checked, report);
  }
  svc.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
