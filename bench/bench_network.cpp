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
//   * broadcast fan-out: net::Network (spatial grid) against the
//     brute-force reference of tests/net_reference.h (brute rungs stop at
//     16k — the O(n^2) columns would dominate the ladder's wall time past
//     that);
//   * full connectivity rebuilds: production's seeding rebuild, timed as
//     the first read of a fresh substrate, against the reference's O(n^2)
//     pair scan (same 16k brute ceiling);
//   * connectivity MAINTENANCE under churn — per round, ~1% of nodes move
//     and the current topology is re-read via topology_view(). The edge
//     store patches itself from the 3x3 neighborhood diff and the read is
//     O(1); the baseline is one full rebuild per round (kChurnRounds x the
//     seeding rebuild above, not counting the moves).
//
// Each rung also reports bytes/node from Network::memory_footprint() — the
// structure-of-arrays slab accounting that must stay flat as n grows.
//
// The part the numbers cannot show — that neither the grid nor the
// incremental store changes anything BUT wall time — is verified per
// rung: up to 16k, production's snapshot equals the reference's (edges,
// order, weight bits) and production broadcasts leave the metric digest
// reference broadcasts leave; at every rung, after churn, the maintained
// store equals a fresh substrate's seeding rebuild over the final
// positions (and, up to 16k, the reference), routed traffic over both
// leaves one digest, and every move bumped the epoch exactly when the
// reference predicts. A mobile routed-traffic scenario swept over seeds on
// the ParallelRunner checks each tick's topology against the reference
// and requires digests independent of the worker count. Any mismatch
// exits nonzero. Emits BENCH_network.json.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/network.h"
#include "net/topology.h"
#include "net_reference.h"
#include "sim/rng.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "things/mobility.h"

namespace {

using namespace iobt;
namespace ref = iobt::testing::net_reference;

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
constexpr std::uint64_t kSeed = 7;

/// Area side that keeps expected radio degree at kTargetDegree for n
/// nodes: density = degree / (pi r^2), side = sqrt(n / density).
double side_for(std::size_t n) {
  const double density = kTargetDegree / (3.14159265358979 * kRangeM * kRangeM);
  return std::sqrt(static_cast<double>(n) / density);
}

/// The node positions of an n-node substrate: uniform in a
/// density-normalized square, identical for identical seeds.
std::vector<sim::Vec2> layout(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  const double side = side_for(n);
  std::vector<sim::Vec2> out(n);
  for (sim::Vec2& p : out) p = {rng.uniform(0, side), rng.uniform(0, side)};
  return out;
}

/// One network instance over the given positions; its edge store is
/// unread until the caller reads it.
struct Substrate {
  sim::Simulator sim;
  net::Network net;
  std::size_t n;

  Substrate(const std::vector<sim::Vec2>& positions, std::uint64_t seed)
      : net(sim, net::ChannelModel(), sim::Rng(seed ^ 0xBADC0DEULL)), n(positions.size()) {
    net::RadioProfile radio;
    radio.range_m = kRangeM;
    for (const sim::Vec2 p : positions) net.add_node(p, radio);
  }
};

net::Message ping() {
  net::Message m;
  m.kind = "bench.ping";
  m.size_bytes = 32;
  return m;
}

/// Times the broadcast issue loop only (candidate enumeration + frame
/// scheduling — the part the grid accelerates), through production or the
/// reference; the delivery events are drained untimed afterwards so the
/// digest covers the full outcome.
double time_broadcasts(Substrate& s, bool brute) {
  bench::WallTimer t;
  for (int i = 0; i < kBroadcasts; ++i) {
    const auto src = static_cast<net::NodeId>((static_cast<std::size_t>(i) * 7919) % s.n);
    if (brute) {
      ref::broadcast(s.net, src, ping());
    } else {
      s.net.broadcast(src, ping());
    }
  }
  const double ms = t.ms();
  s.sim.run();
  return ms;
}

/// kConnRebuilds reference snapshots; `*edges` gets the edge count.
double time_reference_connectivity(const Substrate& s, std::size_t* edges) {
  bench::WallTimer t;
  for (int i = 0; i < kConnRebuilds; ++i) *edges = ref::connectivity(s.net).edge_count();
  return t.ms();
}

/// kConnRebuilds production full rebuilds, each the first read of a fresh
/// substrate over `positions` (its grid memo cold, its store stale); the
/// last rebuild's snapshot lands in `*seeded`.
double time_seeding(const std::vector<sim::Vec2>& positions, net::Topology* seeded) {
  double ms = 0.0;
  for (int i = 0; i < kConnRebuilds; ++i) {
    Substrate fresh(positions, kSeed);
    bench::WallTimer t;
    const net::Topology& view = fresh.net.topology_view();
    ms += t.ms();
    *seeded = view;
  }
  return ms;
}

struct Move {
  net::NodeId id;
  sim::Vec2 to;
};

/// The churn the incremental store exists for: kChurnRounds rounds, each
/// moving ~1% of the nodes to uniform positions.
std::vector<std::vector<Move>> churn_rounds(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed ^ 0xC0FFEEULL);
  const double side = side_for(n);
  const std::size_t movers = n < 100 ? 1 : n / 100;
  std::vector<std::vector<Move>> rounds(kChurnRounds);
  for (std::vector<Move>& round : rounds) {
    for (std::size_t m = 0; m < movers; ++m) {
      const auto id = static_cast<net::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const double x = rng.uniform(0, side);
      round.push_back({id, {x, rng.uniform(0, side)}});
    }
  }
  return rounds;
}

/// Each round applies its moves, then re-reads the current topology (a
/// route planner or analytics pass would do exactly this).
double time_maintenance(Substrate& s, const std::vector<std::vector<Move>>& rounds,
                        std::size_t* edges) {
  bench::WallTimer t;
  for (const std::vector<Move>& round : rounds) {
    for (const Move& m : round) s.net.set_position(m.id, m.to);
    *edges = s.net.topology_view().edge_count();
  }
  return t.ms();
}

/// Replays `rounds` on a fresh substrate over `positions`, predicting each
/// move's epoch bump before making it: from the grid's 3x3 blocks always,
/// and with `brute` also by scanning every node, which the block
/// prediction must then equal. False on any disagreement, with production
/// or between the predictors. `*epoch` gets the predicted final epoch.
bool epochs_as_predicted(const std::vector<sim::Vec2>& positions,
                         const std::vector<std::vector<Move>>& rounds, bool brute,
                         std::uint64_t* epoch) {
  Substrate chk(positions, kSeed);
  std::uint64_t predicted = chk.net.topology_epoch();
  bool ok = true;
  for (const std::vector<Move>& round : rounds) {
    for (const Move& m : round) {
      const bool bump = ref::move_changes_links_from_grid(chk.net, m.id, m.to);
      if (brute) ok = ok && bump == ref::move_changes_links(chk.net, m.id, m.to);
      if (bump) ++predicted;
      chk.net.set_position(m.id, m.to);
      ok = ok && chk.net.topology_epoch() == predicted;
    }
  }
  *epoch = predicted;
  return ok;
}

/// Routed traffic from kRouteSources sources: its metric digest depends on
/// every route, so on every edge and weight of the store it reads.
std::uint64_t routed_digest(Substrate& s) {
  for (int src = 0; src < kRouteSources; ++src) {
    for (int d = 0; d < kRouteDests; ++d) {
      s.net.route_and_send(static_cast<net::NodeId>((static_cast<std::size_t>(src) * 271 + 13) % s.n),
                           static_cast<net::NodeId>((static_cast<std::size_t>(d) * 733 + 512) % s.n),
                           ping());
    }
  }
  s.sim.run();
  return s.net.metrics().digest();
}

struct Rung {
  std::size_t n = 0;
  bool brute_checked = false;  ///< reference legs run only up to kBruteCeiling
  double bcast_brute_ms = 0, bcast_grid_ms = 0;
  double conn_brute_ms = 0, conn_grid_ms = 0;
  double maint_rebuild_ms = 0, maint_incremental_ms = 0;
  std::size_t edges = 0;
  std::size_t mem_bytes_per_node = 0;
  bool identical = false;       ///< production == reference before churn
  bool incr_identical = false;  ///< maintained store == rebuild, epochs as predicted

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
  const std::vector<sim::Vec2> start = layout(n, kSeed);

  // Two passes per timed cell, best-of (first-touch page faults and
  // allocator growth land in the first pass). Production and reference
  // substrates run the identical operation sequence, so their digests
  // must agree.
  Substrate inc(start, kSeed);
  r.bcast_grid_ms = std::min(time_broadcasts(inc, false), time_broadcasts(inc, false));
  r.identical = true;
  if (r.brute_checked) {
    Substrate brute(start, kSeed);
    r.bcast_brute_ms = std::min(time_broadcasts(brute, true), time_broadcasts(brute, true));
    std::size_t edges_brute = 0;
    r.conn_brute_ms = std::min(time_reference_connectivity(brute, &edges_brute),
                               time_reference_connectivity(brute, &edges_brute));
    // Same edge set (endpoints, order, weight bits) and same delivery
    // metrics. Digest equality is the strong check — it covers frame
    // counts, drop reasons, and latency observations.
    const net::Topology& store = inc.net.topology_view();
    r.identical = store.edge_count() == edges_brute &&
                  ref::same_topology(store, ref::connectivity(brute.net)) &&
                  inc.net.metrics().digest() == brute.net.metrics().digest();
  }

  net::Topology seeded;
  r.conn_grid_ms = std::min(time_seeding(start, &seeded), time_seeding(start, &seeded));
  r.edges = seeded.edge_count();
  r.maint_rebuild_ms = r.conn_grid_ms / kConnRebuilds * kChurnRounds;

  // The store is seeded (by its first read) before the timed churn, as a
  // long-running world's would be.
  r.incr_identical = ref::same_topology(inc.net.topology_view(), seeded);
  const std::vector<std::vector<Move>> rounds = churn_rounds(n, kSeed);
  std::size_t edges_churned = 0;
  r.maint_incremental_ms = time_maintenance(inc, rounds, &edges_churned);
  const std::size_t total = inc.net.memory_footprint().total();
  r.mem_bytes_per_node = total / (n == 0 ? 1 : n);

  std::uint64_t predicted_epoch = 0;
  r.incr_identical = r.incr_identical &&
                     epochs_as_predicted(start, rounds, r.brute_checked, &predicted_epoch) &&
                     inc.net.topology_epoch() == predicted_epoch;
  // A twin restored from a snapshot of the churned substrate never
  // maintained a store: its first read is a full rebuild over the final
  // positions, which the patched store must equal. Routed traffic from
  // the identical state must leave identical digests on both.
  Substrate twin(start, kSeed);
  twin.sim.checkpoint().restore(inc.sim.checkpoint().save());
  const net::Topology& store = inc.net.topology_view();
  r.incr_identical = r.incr_identical && store.edge_count() == edges_churned &&
                     ref::same_topology(store, twin.net.topology_view()) &&
                     (!r.brute_checked || ref::same_topology(store, ref::connectivity(inc.net))) &&
                     routed_digest(inc) == routed_digest(twin);
  return r;
}

// --- Mobile routed-traffic scenario (ParallelRunner seed sweep) ----------

struct MobilityOutcome {
  std::uint64_t digest = 0;
  /// Cumulative route_and_send issue time. The first route rebuild after a
  /// tick also re-derives the weights of the moved nodes' links, so this
  /// alone overstates the routing cost and hides the saving in the moves:
  /// tick_ms is the total.
  double route_ms = 0.0;
  double tick_ms = 0.0;  ///< cumulative moves + route issue time
  std::uint64_t routed = 0;
  /// With the reference check on: every tick's topology equalled the
  /// reference snapshot. Vacuously true with it off.
  bool topology_ok = true;
};

MobilityOutcome mobility_scenario(std::uint64_t seed, bool check_reference) {
  sim::Simulator sim;
  net::Network net(sim, net::ChannelModel(), sim::Rng(seed ^ 0x5EEDULL));
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
    // Untimed, after the tick's routes have read (and refreshed) the store.
    if (check_reference) {
      out.topology_ok = out.topology_ok &&
                        ref::same_topology(net.topology_view(), ref::connectivity(net));
    }
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

  // Mobile routed traffic: the serial sweep checks every tick's topology
  // against the reference, and its digests must not depend on the worker
  // count.
  const auto seeds = sim::ParallelRunner::seed_range(100, kMobilitySeeds);
  const auto serial = sim::ParallelRunner(1).run<MobilityOutcome>(
      seeds, [](sim::ReplicationContext& ctx) { return mobility_scenario(ctx.seed, true); });
  const auto pool = sim::ParallelRunner(bench::bench_workers())
                        .run<MobilityOutcome>(seeds, [](sim::ReplicationContext& ctx) {
                          return mobility_scenario(ctx.seed, false);
                        });

  bool topologies_ok = serial.failures == 0;
  bool digests_ok = serial.failures == 0 && pool.failures == 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const MobilityOutcome& a = serial.replications[i].payload;
    const MobilityOutcome& b = pool.replications[i].payload;
    topologies_ok = topologies_ok && a.topology_ok;
    digests_ok = digests_ok && a.digest == b.digest && a.routed == b.routed;
  }
  const bool mobility_identical = topologies_ok && digests_ok;
  identical = identical && mobility_identical;

  const auto route = serial.stats([](const MobilityOutcome& o) { return o.route_ms; });
  const auto tick = serial.stats([](const MobilityOutcome& o) { return o.tick_ms; });
  bench::row("");
  bench::row("mobility (n=%zu, %d ticks, %zu seeds): time/replication", kMobilityNodes,
             kMobilityTicks, kMobilitySeeds);
  bench::row("  routed-send issue: %s ms   moves + routes: %s ms",
             bench::pm(route, 2).c_str(), bench::pm(tick, 2).c_str());
  bench::row("  topologies %s, digests %s",
             topologies_ok ? "== reference every tick" : "DIFFER from reference",
             digests_ok ? "identical (1 == pool workers)" : "MISMATCH");

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
    // The grid+rebuild and brute mobility bodies are gone (one production
    // path); their keys stay, null, so the schema does not change.
    std::fprintf(f,
                 "  \"mobility\": {\"n\": %zu, \"ticks\": %d, \"seeds\": %zu, "
                 "\"route_ms_grid_mean\": null, \"route_ms_brute_mean\": null, "
                 "\"route_ms_incremental_mean\": %.3f, "
                 "\"tick_ms_grid_mean\": null, \"tick_ms_brute_mean\": null, "
                 "\"tick_ms_incremental_mean\": %.3f, "
                 "\"identical\": %s},\n",
                 kMobilityNodes, kMobilityTicks, kMobilitySeeds, route.mean, tick.mean,
                 mobility_identical ? "true" : "false");
    std::fprintf(f, "  \"identical\": %s\n}\n", identical ? "true" : "false");
    std::fclose(f);
    bench::row("");
    bench::row("wrote BENCH_network.json");
  }

  if (!identical) {
    bench::row("DETERMINISM VIOLATION: production and reference disagree");
    return 1;
  }
  return 0;
}
