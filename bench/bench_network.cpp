// N1/N2 — Wireless-substrate scaling harness.
//
// §I's scale claim ("1,000s to 10,000s of things") dies first in the
// network layer: a one-hop broadcast that scans every endpoint and a
// connectivity snapshot that tests all pairs are both O(n^2), which is the
// difference between a 16k-node sweep finishing in seconds or in hours.
// This bench ladders n over {1k..128k} at CONSTANT radio density (the area
// grows with n, so expected degree stays ~10 and the ladder measures
// scaling, not density drift) and times three things:
//
//   * broadcast fan-out, spatial grid on vs off (brute rungs stop at 16k —
//     the O(n^2) columns would dominate the ladder's wall time past that);
//   * full connectivity rebuilds, grid vs brute (same 16k brute ceiling);
//   * connectivity MAINTENANCE under churn — per round, ~1% of nodes move
//     and the current topology is re-read via topology_view(). Rebuild
//     mode pays a full O(n) scan per refresh; incremental mode patches the
//     persistent edge store from the 3x3 neighborhood diff and the refresh
//     is O(1). This is the metric the incremental store exists for.
//
// Each rung also reports bytes/node from Network::memory_footprint() — the
// structure-of-arrays slab accounting that must stay flat as n grows.
//
// The part the numbers cannot show — that neither the grid nor the
// incremental store changes anything BUT wall time — is verified three
// ways: per-rung edge-set + digest equality across {brute, grid} x
// {rebuild, incremental} (brute legs up to 16k), post-churn edge-set
// equality between incremental and rebuild substrates driven through an
// identical move sequence, and a mobile routed-traffic scenario swept
// over seeds on the ParallelRunner whose metric digests must be
// bit-identical across all three substrate configs AND across worker
// counts. Any mismatch exits nonzero. Emits BENCH_network.json.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "things/mobility.h"

namespace {

using namespace iobt;

constexpr double kRangeM = 150.0;
constexpr double kTargetDegree = 10.0;
constexpr int kBroadcasts = 1024;
constexpr int kConnRebuilds = 3;
constexpr int kChurnRounds = 20;
constexpr std::size_t kBruteCeiling = 16000;
constexpr std::size_t kMobilityNodes = 2000;
constexpr std::size_t kMobilitySeeds = 6;
constexpr int kMobilityTicks = 20;
constexpr int kRouteSources = 4;
constexpr int kRouteDests = 4;

/// Area side that keeps expected radio degree at kTargetDegree for n
/// nodes: density = degree / (pi r^2), side = sqrt(n / density).
double side_for(std::size_t n) {
  const double density = kTargetDegree / (3.14159265358979 * kRangeM * kRangeM);
  return std::sqrt(static_cast<double>(n) / density);
}

/// One network instance: n nodes uniform in a density-normalized square.
/// Identical seed => identical node placement across all substrate configs.
struct Substrate {
  sim::Simulator sim;
  net::Network net;
  std::size_t n;

  Substrate(std::size_t nodes, std::uint64_t seed, bool grid, bool incremental)
      : net(sim, net::ChannelModel(), sim::Rng(seed ^ 0xBADC0DEULL)), n(nodes) {
    net.set_spatial_index_enabled(grid);
    net.set_incremental_connectivity_enabled(incremental);
    sim::Rng rng(seed);
    const double side = side_for(n);
    net::RadioProfile radio;
    radio.range_m = kRangeM;
    for (std::size_t i = 0; i < n; ++i) {
      net.add_node({rng.uniform(0, side), rng.uniform(0, side)}, radio);
    }
  }
};

net::Message ping() {
  net::Message m;
  m.kind = "bench.ping";
  m.size_bytes = 32;
  return m;
}

/// Times the broadcast issue loop only (candidate enumeration + frame
/// scheduling — the part the grid accelerates); the delivery events are
/// drained untimed afterwards so the digest covers the full outcome.
double time_broadcasts(Substrate& s) {
  bench::WallTimer t;
  for (int i = 0; i < kBroadcasts; ++i) {
    s.net.broadcast(static_cast<net::NodeId>((static_cast<std::size_t>(i) * 7919) % s.n),
                    ping());
  }
  const double ms = t.ms();
  s.sim.run();
  return ms;
}

double time_connectivity(Substrate& s, std::size_t* edges) {
  bench::WallTimer t;
  for (int i = 0; i < kConnRebuilds; ++i) {
    const net::Topology topo = s.net.connectivity();
    *edges = topo.edge_count();
  }
  return t.ms();
}

/// The churn loop the incremental store exists for: each round moves ~1%
/// of the nodes, then re-reads the current topology (a route planner or
/// analytics pass would do exactly this). Identical seed => identical move
/// sequence across substrates, so the post-churn edge sets must match.
double time_maintenance(Substrate& s, std::uint64_t seed, std::size_t* edges) {
  sim::Rng rng(seed ^ 0xC0FFEEULL);
  const double side = side_for(s.n);
  const std::size_t movers = s.n < 100 ? 1 : s.n / 100;
  bench::WallTimer t;
  for (int round = 0; round < kChurnRounds; ++round) {
    for (std::size_t m = 0; m < movers; ++m) {
      const auto id = static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(s.n) - 1));
      s.net.set_position(id, {rng.uniform(0, side), rng.uniform(0, side)});
    }
    *edges = s.net.topology_view().edge_count();
  }
  return t.ms();
}

bool same_edges(const net::Topology& a, const net::Topology& b) {
  const auto ea = a.edges();
  const auto eb = b.edges();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].a != eb[i].a || ea[i].b != eb[i].b || ea[i].weight != eb[i].weight)
      return false;
  }
  return true;
}

struct Rung {
  std::size_t n = 0;
  bool brute_checked = false;  ///< brute legs run only up to kBruteCeiling
  double bcast_brute_ms = 0, bcast_grid_ms = 0;
  double conn_brute_ms = 0, conn_grid_ms = 0;
  double maint_rebuild_ms = 0, maint_incremental_ms = 0;
  std::size_t edges = 0;
  std::size_t mem_bytes_per_node = 0;
  bool identical = false;       ///< grid/brute x rebuild/incremental agree
  bool incr_identical = false;  ///< incremental == rebuild, incl. post-churn

  double bcast_speedup() const {
    return brute_checked ? bcast_brute_ms / bcast_grid_ms : 0.0;
  }
  double conn_speedup() const {
    return brute_checked ? conn_brute_ms / conn_grid_ms : 0.0;
  }
  double maint_speedup() const { return maint_rebuild_ms / maint_incremental_ms; }
};

Rung run_rung(std::size_t n) {
  Rung r;
  r.n = n;
  r.brute_checked = n <= kBruteCeiling;
  Substrate reb(n, /*seed=*/7, /*grid=*/true, /*incremental=*/false);
  Substrate inc(n, /*seed=*/7, /*grid=*/true, /*incremental=*/true);

  // Two passes per cell, best-of (first-touch page faults and allocator
  // growth land in the first pass). Every substrate runs the identical
  // operation sequence, so the digest checks are unaffected.
  r.bcast_grid_ms = std::min(time_broadcasts(reb), time_broadcasts(reb));
  time_broadcasts(inc);
  time_broadcasts(inc);

  std::size_t edges_grid = 0;
  r.conn_grid_ms = std::min(time_connectivity(reb, &edges_grid),
                            time_connectivity(reb, &edges_grid));
  r.edges = edges_grid;

  r.identical = true;
  if (r.brute_checked) {
    Substrate brute(n, /*seed=*/7, /*grid=*/false, /*incremental=*/false);
    r.bcast_brute_ms = std::min(time_broadcasts(brute), time_broadcasts(brute));
    std::size_t edges_brute = 0;
    r.conn_brute_ms = std::min(time_connectivity(brute, &edges_brute),
                               time_connectivity(brute, &edges_brute));
    // Equivalence: same edge set (count + per-edge endpoints/weights) and
    // same delivery metrics. Digest equality is the strong check — it
    // covers frame counts, drop reasons, and latency observations.
    r.identical = edges_brute == edges_grid &&
                  same_edges(brute.net.connectivity(), reb.net.connectivity()) &&
                  brute.net.metrics().digest() == reb.net.metrics().digest();
  }

  // The incremental store must agree with the rebuild path before churn...
  r.incr_identical = same_edges(inc.net.topology_view(), reb.net.topology_view()) &&
                     inc.net.metrics().digest() == reb.net.metrics().digest();

  // ...and after: both substrates replay the identical move sequence, the
  // rebuild leg re-scanning per refresh, the incremental leg patching.
  std::size_t edges_reb_churn = 0, edges_inc_churn = 0;
  r.maint_rebuild_ms = time_maintenance(reb, /*seed=*/7, &edges_reb_churn);
  r.maint_incremental_ms = time_maintenance(inc, /*seed=*/7, &edges_inc_churn);
  r.incr_identical = r.incr_identical && edges_reb_churn == edges_inc_churn &&
                     same_edges(inc.net.topology_view(), reb.net.topology_view()) &&
                     inc.net.topology_epoch() == reb.net.topology_epoch();

  const std::size_t total = inc.net.memory_footprint().total();
  r.mem_bytes_per_node = total / (n == 0 ? 1 : n);
  return r;
}

// --- Mobile routed-traffic scenario (ParallelRunner seed sweep) ----------

struct MobilityOutcome {
  std::uint64_t digest = 0;
  /// Cumulative route_and_send issue time. With incremental maintenance
  /// the first route rebuild after a tick also re-derives the weights of
  /// the moved nodes' links, so this alone overstates the routing cost
  /// and hides the saving in the moves: tick_ms is the total.
  double route_ms = 0.0;
  double tick_ms = 0.0;  ///< cumulative moves + route issue time
  std::uint64_t routed = 0;
};

MobilityOutcome mobility_scenario(std::uint64_t seed, bool grid, bool incremental) {
  sim::Simulator sim;
  net::Network net(sim, net::ChannelModel(), sim::Rng(seed ^ 0x5EEDULL));
  net.set_spatial_index_enabled(grid);
  net.set_incremental_connectivity_enabled(incremental);
  sim::Rng rng(seed);
  const double side = side_for(kMobilityNodes);
  const sim::Rect area{{0, 0}, {side, side}};
  net::RadioProfile radio;
  radio.range_m = kRangeM;
  std::vector<things::RandomWaypoint> walkers;
  walkers.reserve(kMobilityNodes);
  for (std::size_t i = 0; i < kMobilityNodes; ++i) {
    net.add_node({rng.uniform(0, side), rng.uniform(0, side)}, radio);
    walkers.emplace_back(area, /*speed_mps=*/15.0, /*pause_s=*/0.0,
                         rng.child(0x30B0ULL + i));
  }

  MobilityOutcome out;
  for (int tick = 0; tick < kMobilityTicks; ++tick) {
    bench::WallTimer tick_timer;
    for (std::size_t i = 0; i < kMobilityNodes; ++i) {
      const auto id = static_cast<net::NodeId>(i);
      net.set_position(id, walkers[i].step(net.position(id), 1.0));
    }
    bench::WallTimer t;
    for (int s = 0; s < kRouteSources; ++s) {
      const auto src = static_cast<net::NodeId>((static_cast<std::size_t>(s) * 271 + 13) %
                                                kMobilityNodes);
      for (int d = 0; d < kRouteDests; ++d) {
        const auto dst = static_cast<net::NodeId>(
            (static_cast<std::size_t>(d) * 733 + 512) % kMobilityNodes);
        if (dst == src) continue;
        if (net.route_and_send(src, dst, ping())) ++out.routed;
      }
    }
    out.route_ms += t.ms();
    out.tick_ms += tick_timer.ms();
    sim.run();
  }
  out.digest = net.metrics().digest();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::parse_args(argc, argv);
  bench::header("N1/N2: wireless substrate scaling (grid + incremental maintenance)",
                "100,000s of things need geometric queries that do not touch "
                "every endpoint and topology upkeep that does not re-scan the "
                "world; both must change wall time only");

  run_rung(500);  // warmup: heap growth + code paging, result discarded

  const std::vector<std::size_t> ladder = {1000, 2000, 4000, 8000, 16000,
                                           32000, 64000, 128000};
  std::vector<Rung> rungs;
  bench::row("%-8s %-12s %-12s %-8s %-12s %-12s %-8s %-12s %-12s %-8s %-8s %-6s %-6s",
             "n", "bcast_brute", "bcast_grid", "speedup", "conn_brute", "conn_grid",
             "speedup", "maint_reb", "maint_inc", "speedup", "B/node", "same", "inc=");
  bool identical = true;
  for (const std::size_t n : ladder) {
    rungs.push_back(run_rung(n));
    const Rung& r = rungs.back();
    identical = identical && r.identical && r.incr_identical;
    bench::row("%-8zu %-12.2f %-12.2f %-8.2f %-12.2f %-12.2f %-8.2f %-12.2f %-12.2f "
               "%-8.1f %-8zu %-6s %-6s",
               r.n, r.bcast_brute_ms, r.bcast_grid_ms, r.bcast_speedup(),
               r.conn_brute_ms, r.conn_grid_ms, r.conn_speedup(), r.maint_rebuild_ms,
               r.maint_incremental_ms, r.maint_speedup(), r.mem_bytes_per_node,
               r.brute_checked ? (r.identical ? "yes" : "NO") : "skip",
               r.incr_identical ? "yes" : "NO");
  }

  // Mobile routed traffic: per-seed digests must match across all three
  // substrate configs, and the grid sweep's digests must not depend on the
  // worker count.
  const auto seeds = sim::ParallelRunner::seed_range(100, kMobilitySeeds);
  const std::function<MobilityOutcome(sim::ReplicationContext&)> grid_body =
      [](sim::ReplicationContext& ctx) { return mobility_scenario(ctx.seed, true, false); };
  const std::function<MobilityOutcome(sim::ReplicationContext&)> brute_body =
      [](sim::ReplicationContext& ctx) { return mobility_scenario(ctx.seed, false, false); };
  const std::function<MobilityOutcome(sim::ReplicationContext&)> incr_body =
      [](sim::ReplicationContext& ctx) { return mobility_scenario(ctx.seed, true, true); };

  const auto grid_serial = sim::ParallelRunner(1).run<MobilityOutcome>(seeds, grid_body);
  const auto grid_pool =
      sim::ParallelRunner(bench::bench_workers()).run<MobilityOutcome>(seeds, grid_body);
  const auto brute_serial = sim::ParallelRunner(1).run<MobilityOutcome>(seeds, brute_body);
  const auto incr_serial = sim::ParallelRunner(1).run<MobilityOutcome>(seeds, incr_body);

  bool mobility_identical = grid_serial.failures == 0 && grid_pool.failures == 0 &&
                            brute_serial.failures == 0 && incr_serial.failures == 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    mobility_identical =
        mobility_identical &&
        grid_serial.replications[i].payload.digest ==
            brute_serial.replications[i].payload.digest &&
        grid_serial.replications[i].payload.digest ==
            grid_pool.replications[i].payload.digest &&
        grid_serial.replications[i].payload.digest ==
            incr_serial.replications[i].payload.digest &&
        grid_serial.replications[i].payload.routed ==
            brute_serial.replications[i].payload.routed &&
        grid_serial.replications[i].payload.routed ==
            incr_serial.replications[i].payload.routed;
  }
  identical = identical && mobility_identical;

  const auto route_ms = [](const MobilityOutcome& o) { return o.route_ms; };
  const auto grid_route = grid_serial.stats(route_ms);
  const auto brute_route = brute_serial.stats(route_ms);
  const auto incr_route = incr_serial.stats(route_ms);
  const auto tick_ms = [](const MobilityOutcome& o) { return o.tick_ms; };
  const auto grid_tick = grid_serial.stats(tick_ms);
  const auto brute_tick = brute_serial.stats(tick_ms);
  const auto incr_tick = incr_serial.stats(tick_ms);
  bench::row("");
  bench::row("mobility (n=%zu, %d ticks, %zu seeds): time/replication", kMobilityNodes,
             kMobilityTicks, kMobilitySeeds);
  bench::row("  routed-send issue:  grid+rebuild: %s ms   brute: %s ms   "
             "grid+incremental: %s ms",
             bench::pm(grid_route, 2).c_str(), bench::pm(brute_route, 2).c_str(),
             bench::pm(incr_route, 2).c_str());
  bench::row("  moves + routes:     grid+rebuild: %s ms   brute: %s ms   "
             "grid+incremental: %s ms",
             bench::pm(grid_tick, 2).c_str(), bench::pm(brute_tick, 2).c_str(),
             bench::pm(incr_tick, 2).c_str());
  bench::row("  digests %s",
             mobility_identical ? "identical (brute==grid==incremental, 1==pool workers)"
                                : "MISMATCH");

  std::FILE* f = std::fopen("BENCH_network.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"bench\": \"bench_network\",\n");
    std::fprintf(f, "  \"range_m\": %.1f, \"target_degree\": %.1f, \"broadcasts\": %d, "
                    "\"conn_rebuilds\": %d, \"churn_rounds\": %d, \"brute_ceiling\": %zu,\n",
                 kRangeM, kTargetDegree, kBroadcasts, kConnRebuilds, kChurnRounds,
                 kBruteCeiling);
    std::fprintf(f, "  \"ladder\": [\n");
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const Rung& r = rungs[i];
      std::fprintf(f,
                   "    {\"n\": %zu, \"brute_checked\": %s, "
                   "\"broadcast_brute_ms\": %.3f, "
                   "\"broadcast_grid_ms\": %.3f, \"broadcast_speedup\": %.2f, "
                   "\"connectivity_brute_ms\": %.3f, \"connectivity_grid_ms\": %.3f, "
                   "\"connectivity_speedup\": %.2f, "
                   "\"maintenance_rebuild_ms\": %.3f, "
                   "\"maintenance_incremental_ms\": %.3f, "
                   "\"maintenance_speedup\": %.2f, "
                   "\"mem_bytes_per_node\": %zu, \"edges\": %zu, "
                   "\"identical\": %s, \"incremental_identical\": %s}%s\n",
                   r.n, r.brute_checked ? "true" : "false", r.bcast_brute_ms,
                   r.bcast_grid_ms, r.bcast_speedup(), r.conn_brute_ms, r.conn_grid_ms,
                   r.conn_speedup(), r.maint_rebuild_ms, r.maint_incremental_ms,
                   r.maint_speedup(), r.mem_bytes_per_node, r.edges,
                   r.identical ? "true" : "false", r.incr_identical ? "true" : "false",
                   i + 1 < rungs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"mobility\": {\"n\": %zu, \"ticks\": %d, \"seeds\": %zu, "
                 "\"route_ms_grid_mean\": %.3f, \"route_ms_brute_mean\": %.3f, "
                 "\"route_ms_incremental_mean\": %.3f, "
                 "\"tick_ms_grid_mean\": %.3f, \"tick_ms_brute_mean\": %.3f, "
                 "\"tick_ms_incremental_mean\": %.3f, "
                 "\"identical\": %s},\n",
                 kMobilityNodes, kMobilityTicks, kMobilitySeeds, grid_route.mean,
                 brute_route.mean, incr_route.mean, grid_tick.mean, brute_tick.mean,
                 incr_tick.mean, mobility_identical ? "true" : "false");
    std::fprintf(f, "  \"identical\": %s\n}\n", identical ? "true" : "false");
    std::fclose(f);
    bench::row("");
    bench::row("wrote BENCH_network.json");
  }

  if (!identical) {
    bench::row("DETERMINISM VIOLATION: substrate configurations disagree");
    return 1;
  }
  return 0;
}
