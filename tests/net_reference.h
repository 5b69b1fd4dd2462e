#pragma once
// Brute-force reference for net::Network, built on its public API only.
//
// Production enumerates link candidates from per-layer spatial grids and
// keeps an incrementally patched edge store. This header answers the same
// questions by exhaustive O(n) / O(n^2) scans, so equivalence tests (and
// bench_network's identity flags) compare production against an
// independent oracle:
//
//   * connectivity(net) — every live, link-allowed, in-range pair, edges
//     in (a ascending, then b > a ascending) order with sim::distance
//     weights, so a Topology compares bit for bit with production's;
//   * nodes_near(net, p, r) — the live nodes within r of p, ascending;
//   * broadcast(net, src, msg) — one send() per receiver in ascending id
//     order, so the per-receiver loss draws consume the RNG stream in
//     production's order and metric digests compare (receivers see
//     msg.dst = their own id rather than kBroadcast; no digest reads it);
//   * move_changes_links(net, id, to) — whether moving `id` to `to` bumps
//     the topology epoch: iff some live, link-allowed peer's in-range
//     relation to `id` flips (gateway_flip_changes_links likewise for
//     set_gateway);
//   * same_topology(a, b) — bit-for-bit Topology equality: adjacency
//     order (Dijkstra tie-breaks) and the weight bits.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <vector>

#include "net/network.h"
#include "net/topology.h"

namespace iobt::testing::net_reference {

using net::NodeId;

/// The layer predicate: same layer, or two gateways.
inline bool link_allowed(const net::Network& net, NodeId a, NodeId b) {
  return net.layer(a) == net.layer(b) || (net.is_gateway(a) && net.is_gateway(b));
}

/// True iff `a` placed at `pa` and `b` at its current position are in
/// radio range of each other.
inline bool in_range_at(const net::Network& net, NodeId a, sim::Vec2 pa, NodeId b) {
  return net.channel().in_range(pa, net.profile(a), net.position(b), net.profile(b));
}

/// True iff a link between live nodes `a` and `b` is permitted and in range.
inline bool linked(const net::Network& net, NodeId a, NodeId b) {
  return link_allowed(net, a, b) && in_range_at(net, a, net.position(a), b);
}

inline net::Topology connectivity(const net::Network& net) {
  // One pass gathers what the pair scan reads, so the O(n^2) loop costs
  // what a brute-force scan over Network's own slabs would.
  struct Live {
    NodeId id;
    sim::Vec2 p;
    const net::RadioProfile* radio;
    net::LayerId layer;
    bool gateway;
  };
  std::vector<Live> live;
  for (NodeId id = 0; id < net.node_count(); ++id) {
    if (net.node_up(id)) {
      live.push_back({id, net.position(id), &net.profile(id), net.layer(id), net.is_gateway(id)});
    }
  }
  std::vector<net::Edge> edges;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Live& a = live[i];
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      const Live& b = live[j];
      if ((a.layer == b.layer || (a.gateway && b.gateway)) &&
          net.channel().in_range(a.p, *a.radio, b.p, *b.radio)) {
        edges.push_back({a.id, b.id, sim::distance(a.p, b.p)});
      }
    }
  }
  return net::Topology(net.node_count(), edges);
}

inline std::vector<NodeId> nodes_near(const net::Network& net, sim::Vec2 p, double radius) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < net.node_count(); ++id) {
    if (net.node_up(id) && sim::distance(net.position(id), p) <= radius) out.push_back(id);
  }
  return out;
}

/// Returns the number of frames put on the air, like Network::broadcast.
inline std::size_t broadcast(net::Network& net, NodeId src, const net::Message& msg) {
  // A down source counts one kNodeDown drop and sends nothing.
  if (!net.node_up(src)) return net.send(src, src, msg) ? 1 : 0;
  std::size_t on_air = 0;
  for (NodeId other = 0; other < net.node_count(); ++other) {
    if (other == src || !net.node_up(other) || !linked(net, src, other)) continue;
    if (net.send(src, other, msg)) ++on_air;
  }
  return on_air;
}

/// Whether any candidate's in-range relation to `id` differs between its
/// current position and `to`. The candidates must include every live,
/// link-allowed peer of `id` in range of either position.
template <typename Candidates>
bool move_flips_any(const net::Network& net, NodeId id, sim::Vec2 to,
                    const Candidates& candidates) {
  if (!net.node_up(id) || net.position(id) == to) return false;
  const sim::Vec2 from = net.position(id);
  for (const NodeId other : candidates) {
    if (other == id || !net.node_up(other) || !link_allowed(net, id, other)) continue;
    if (in_range_at(net, id, from, other) != in_range_at(net, id, to, other)) return true;
  }
  return false;
}

/// Predicts whether Network::set_position(id, to) bumps the topology
/// epoch, by scanning every node.
inline bool move_changes_links(const net::Network& net, NodeId id, sim::Vec2 to) {
  return move_flips_any(net, id, to,
                        std::views::iota(NodeId{0}, static_cast<NodeId>(net.node_count())));
}

/// The same prediction from the public per-layer grid: the 3x3 blocks of
/// both positions in `id`'s layer, plus every gateway of another layer
/// when `id` is a gateway. Cheap enough past the sizes an all-node scan
/// can afford; equal to move_changes_links iff the grid covers every
/// same-layer radio disc, which callers check on the sizes where both run.
inline bool move_changes_links_from_grid(const net::Network& net, NodeId id, sim::Vec2 to) {
  std::vector<NodeId> candidates;
  const net::SpatialGrid& grid = net.spatial_grid(net.layer(id));
  grid.neighborhood(net.position(id), candidates);
  grid.neighborhood(to, candidates);
  if (net.is_gateway(id)) {
    for (NodeId g = 0; g < net.node_count(); ++g) {
      if (net.is_gateway(g) && net.layer(g) != net.layer(id)) candidates.push_back(g);
    }
  }
  return move_flips_any(net, id, to, candidates);
}

/// Predicts whether Network::set_gateway(id, !is_gateway(id)) bumps the
/// topology epoch: iff `id` is live and some live gateway of another layer
/// is in range (exactly the links a flip can add or cut).
inline bool gateway_flip_changes_links(const net::Network& net, NodeId id) {
  if (!net.node_up(id)) return false;
  for (NodeId other = 0; other < net.node_count(); ++other) {
    if (net.node_up(other) && net.is_gateway(other) && net.layer(other) != net.layer(id) &&
        in_range_at(net, id, net.position(id), other)) {
      return true;
    }
  }
  return false;
}

inline bool same_topology(const net::Topology& a, const net::Topology& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) return false;
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto& an = a.neighbors(v);
    const auto& bn = b.neighbors(v);
    if (an.size() != bn.size()) return false;
    for (std::size_t i = 0; i < an.size(); ++i) {
      // operator== on doubles would let -0.0 == 0.0 and miss NaN bits; the
      // contract is the exact bit pattern.
      if (an[i].id != bn[i].id ||
          std::bit_cast<std::uint64_t>(an[i].weight) != std::bit_cast<std::uint64_t>(bn[i].weight)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace iobt::testing::net_reference
