#pragma once
// Packet-level simulated wireless network.
//
// A Network owns the set of radio endpoints, delivers unicast and one-hop
// broadcast frames with transmission delay + propagation latency + loss,
// and forwards multi-hop traffic along shortest paths over the *current*
// connectivity graph (maintained incrementally as positions and liveness
// change). Per-node accounting (bytes, drops, energy callbacks) feeds the
// experiment harnesses.
//
// Node state lives in structure-of-arrays slabs (one flat vector per
// field) rather than an array of endpoint structs: the hot loops — grid
// rebuilds, connectivity scans, liveness sweeps — touch one or two fields
// of every node, and slab layout keeps those sweeps on densely packed
// cache lines at 100k+ nodes instead of striding over 80-byte records.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/layer.h"
#include "net/message.h"
#include "net/spatial_grid.h"
#include "net/topology.h"
#include "sim/checkpoint.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace iobt::net {

/// Delivery callback installed per node: invoked (at the receive time) for
/// every message addressed to, or broadcast within range of, the node.
using Handler = std::function<void(const Message&)>;

/// Why a send() failed to deliver.
enum class DropReason {
  kOutOfRange,
  kChannelLoss,
  kNodeDown,
  kNoRoute,
  kQueueOverflow,
  kLayerBlocked,  ///< endpoints in different layers and not both gateways
};
inline constexpr std::size_t kDropReasonCount = 6;

std::string to_string(DropReason r);

class Network : public sim::SerializableCheckpointable {
 public:
  Network(sim::Simulator& simulator, ChannelModel channel, sim::Rng rng);
  ~Network() override;

  // --- Node lifecycle ---------------------------------------------------

  /// Registers a radio endpoint; returns its dense NodeId. The layer tag
  /// defaults to kLayerGround, so a caller that never mentions layers gets
  /// a flat network: every pair is same-layer and the layer predicate
  /// never blocks a link.
  NodeId add_node(sim::Vec2 position, RadioProfile profile = {},
                  LayerId layer = kLayerGround);
  std::size_t node_count() const { return positions_.size(); }

  void set_handler(NodeId id, Handler h);
  /// Moves a node. The edge store gains and loses exactly the links that
  /// changed; the weights of the links the node keeps are left stale and
  /// re-derived on the next read of the store (connectivity(),
  /// topology_view(), a route rebuild).
  void set_position(NodeId id, sim::Vec2 p);
  sim::Vec2 position(NodeId id) const { return positions_.at(id); }
  const RadioProfile& profile(NodeId id) const { return profiles_.at(id); }

  // --- Layers -------------------------------------------------------------
  // Links form only within a layer, except between two gateway nodes,
  // which bridge any pair of layers (explicit inter-layer edges). The
  // predicate is applied uniformly by transmit/broadcast, the edge store
  // and its seeding rebuild.

  LayerId layer(NodeId id) const { return layers_.at(id); }
  bool is_gateway(NodeId id) const { return gateway_.at(id) != 0; }
  /// Promotes/demotes a node as an inter-layer gateway. Affected links are
  /// exactly the cross-layer links to other live in-range gateways; the
  /// topology epoch is bumped only if at least one such link appeared or
  /// vanished (a flip with no cross-layer peer in range changes nothing,
  /// so flat-network digests are unaffected).
  void set_gateway(NodeId id, bool on);

  /// Takes a node offline: it neither sends, receives, nor forwards.
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const { return up_.at(id) != 0; }

  // --- Traffic ----------------------------------------------------------

  /// One-hop unicast. Delivery (or drop) is decided per-frame from the
  /// channel model. Returns false if the frame was dropped at send time
  /// (down node / out of range); channel loss is decided at delivery time.
  bool send(NodeId src, NodeId dst, Message msg);

  /// One-hop broadcast to every live node in radio range of src.
  /// Returns number of frames put on the air.
  std::size_t broadcast(NodeId src, Message msg);

  /// Multi-hop unicast along the current shortest path (hop count metric).
  /// Each hop is a real frame subject to loss; on a lost hop the message
  /// dies (upper layers retry if they care). Returns false if no route —
  /// including unknown node ids (dropped kNoRoute, mirroring route_exists)
  /// and a down src == dst (dropped kNodeDown: a dead radio delivers
  /// nothing, not even to itself).
  bool route_and_send(NodeId src, NodeId dst, Message msg);

  /// True if a multi-hop route currently exists.
  bool route_exists(NodeId src, NodeId dst);

  // --- Introspection ----------------------------------------------------

  /// Snapshot of the current connectivity graph among live nodes (edge
  /// weight = distance): the persistent edge store, after re-deriving the
  /// weights of the edges of nodes moved since the last read — O(edges),
  /// no node scan. The store is patched by add_node / set_position /
  /// set_node_up / set_gateway with exactly the edges they add or cut, and
  /// seeded by one full rebuild from grid neighborhoods on its first read
  /// (at birth, after a restore, after add_building). Like every other
  /// read of the store it may write the weights, so it is not safe to
  /// call concurrently on one Network.
  Topology connectivity() const;

  /// Borrowed view of the current connectivity graph, valid until the next
  /// Network mutation: a reference to the live edge store after the same
  /// moved-node weight refresh as connectivity() — no copy, no scan.
  const Topology& topology_view() const;

  /// The spatial index of one layer: its live nodes, bucketed at a cell
  /// size >= the longest radio range ever registered in that layer.
  const SpatialGrid& spatial_grid(LayerId layer) const {
    return layer_grids_.at(layer).grid;
  }

  /// Monotone counter bumped whenever the connectivity graph may have
  /// changed (node added, liveness flipped, or a move that changed at
  /// least one in-range relationship). Route caches — ours and callers' —
  /// key on it. A move that changes no in-range relationship does NOT bump
  /// the epoch: cached routes stay structurally valid (their hop sequences
  /// still exist) even though link distances drift slightly.
  std::uint64_t topology_epoch() const { return topology_epoch_; }

  /// Live-node candidates within `radius` of `p`, ascending NodeId order.
  /// This is a SUPERSET gathered from grid cells intersecting the disc:
  /// callers apply their own exact distance filter, so their selection —
  /// and any RNG draw order downstream of it — is that of an exhaustive
  /// ascending scan.
  std::vector<NodeId> nodes_near(sim::Vec2 p, double radius) const;

  const ChannelModel& channel() const { return channel_; }
  /// Registers a jamming field. Jammers shape loss only, never in_range,
  /// so the connectivity graph is untouched.
  void add_jammer(Jammer j) { channel_.add_jammer(j); }
  /// Raises an RF-opaque building. It can cut any existing link, so the
  /// edge store is marked stale (the next read reseeds it from a full
  /// rebuild) and the topology epoch is bumped.
  void add_building(sim::Rect footprint);
  sim::Simulator& simulator() { return sim_; }

  /// Fixed per-hop propagation + processing latency.
  void set_hop_latency(sim::Duration d) { hop_latency_ = d; }

  /// Called once per transmitted frame with (node, bytes): energy hooks.
  void set_transmit_hook(std::function<void(NodeId, std::size_t)> hook) {
    transmit_hook_ = std::move(hook);
  }
  /// Called on every drop with (reason, message).
  void set_drop_hook(std::function<void(DropReason, const Message&)> hook) {
    drop_hook_ = std::move(hook);
  }

  sim::MetricsRegistry& metrics() { return metrics_; }
  const sim::MetricsRegistry& metrics() const { return metrics_; }

  std::uint64_t bytes_sent(NodeId id) const { return bytes_sent_.at(id); }
  std::uint64_t total_bytes_sent() const;
  std::uint64_t frames_dropped() const { return frames_dropped_; }

  /// Bytes held per substrate structure (container capacities x element
  /// sizes — a deterministic structural measure, not allocator truth).
  /// Seeds a stale edge store first, so `links` always counts the store
  /// incremental maintenance keeps.
  /// Feeds the memory-per-node column of the scaling bench: the budget
  /// that decides whether one world fits 100k+ nodes.
  struct MemoryFootprint {
    std::size_t node_slabs = 0;   ///< SoA per-node field vectors
    std::size_t grid = 0;         ///< per-layer grid cells + memos, gateway list
    std::size_t links = 0;        ///< incremental edge store + its move bookkeeping
    std::size_t route_cache = 0;  ///< per-source shortest-path cache
    std::size_t pending = 0;      ///< in-flight frame slab
    std::size_t total() const {
      return node_slabs + grid + links + route_cache + pending;
    }
  };
  MemoryFootprint memory_footprint() const;

  // --- Checkpointing ----------------------------------------------------
  // Saved: node slabs (positions, profiles, liveness, accounting — NOT the
  // receive handlers, which are closures of the live service stack),
  // channel, rng, metrics, and every in-flight frame with its delivery
  // time + original FIFO seq. Restored: all of the above, with the grid
  // and the route cache rebuilt from scratch and the incremental edge
  // store marked stale (pure derived state; the first read reseeds it),
  // and deliveries re-armed in original-seq order.
  // Handlers already installed on the restoring stack are kept per-node;
  // services that installed handlers on nodes created mid-run (e.g. Sybil
  // firmware) must re-install them from their own participant restore.

  std::string_view checkpoint_key() const override { return "net.network"; }
  void save(sim::Snapshot& snap, const std::string& key) const override;
  void restore(const sim::Snapshot& snap, const std::string& key,
               sim::RestoreArmer& armer) override;
  /// Wire persistence (sim/wire.h). Metrics embed their own bit-exact
  /// serialize() image. Returns false when any in-flight frame carries a
  /// live std::any payload — structured payloads cannot cross a process
  /// boundary, so such snapshots stay memory-only.
  bool encode_state(const sim::Snapshot& snap, const std::string& key,
                    sim::WireWriter& w) const override;
  bool decode_state(sim::Snapshot& snap, const std::string& key,
                    sim::WireReader& r) const override;

 private:
  /// A frame on the air, parked in the pending slab until its delivery
  /// event fires. Slab slots are recycled through a free list so the hot
  /// path reuses their buffers; the delivery closure captures only
  /// {this, slot} — small enough for std::function's inline storage, so
  /// scheduling a frame performs no heap allocation.
  struct PendingFrame {
    Message msg;
    std::vector<NodeId> path_tail;
    std::uint64_t frame_trace = 0;
    NodeId dst = 0;
    bool lost = false;
    std::uint32_t next_free = 0;
    /// Delivery time + event id, kept so checkpoints can capture the
    /// frame's original seq and restores can cancel/re-arm it.
    sim::SimTime deliver_at;
    sim::EventId event = sim::kNoEvent;
  };
  static constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;

  /// One in-flight frame as saved in a Snapshot.
  struct SavedFrame {
    Message msg;
    std::vector<NodeId> path_tail;
    NodeId dst = 0;
    bool lost = false;
    sim::SimTime deliver_at;
    std::uint64_t seq = 0;
  };
  struct CheckpointState {
    // Node slabs, parallel by NodeId (handlers excluded: live-stack
    // closures never enter a snapshot).
    std::vector<sim::Vec2> positions;
    std::vector<RadioProfile> profiles;
    std::vector<std::uint8_t> up;
    std::vector<LayerId> layers;
    std::vector<std::uint8_t> gateway;
    std::vector<std::uint64_t> node_bytes_sent;
    std::vector<sim::SimTime> tx_free_at;
    ChannelModel channel;
    sim::Rng rng;
    sim::MetricsRegistry metrics;
    std::uint64_t frames_dropped = 0;
    sim::Duration hop_latency;
    std::uint64_t next_frame_trace_id = 1;
    double max_range_m = 0.0;
    std::uint64_t topology_epoch = 0;
    std::vector<SavedFrame> in_flight;
  };

  /// Marks the slab slots currently on the free list; live in-flight
  /// frames are the rest.
  std::vector<bool> free_slots() const;
  /// (Re)binds the hot-path metric pointers into metrics_ — called from
  /// the constructor and after restore replaces the registry wholesale
  /// (copy-assigning a std::map gives no node-stability guarantee).
  void resolve_metric_handles();

  /// Puts one frame on the air src->dst; handles loss + delivery event.
  /// Returns true if the frame was scheduled (not necessarily delivered).
  bool transmit(NodeId src, NodeId dst, Message msg,
                const std::vector<NodeId>* remaining_path);
  /// Delivery event body: resolves loss, forwards multi-hop tails, invokes
  /// the receiver handler, and recycles the slab slot.
  void deliver_pending(std::uint32_t slot);

  void drop(DropReason reason, const Message& msg);
  void invalidate_routes() { ++topology_epoch_; }
  /// The layer predicate: true iff a link between a and b is permitted.
  /// Same layer always; cross-layer only between two gateways.
  bool link_allowed(NodeId a, NodeId b) const {
    return layers_[a] == layers_[b] || (gateway_[a] && gateway_[b]);
  }

  /// The grid indexing `id`'s layer.
  const SpatialGrid& grid_of(NodeId id) const { return layer_grids_[layers_[id]].grid; }
  SpatialGrid& grid_of(NodeId id) { return layer_grids_[layers_[id]].grid; }
  /// Appends, ascending, the live gateways of other layers when `id` is
  /// itself a gateway — its only possible cross-layer peers, which its own
  /// layer's grid does not index. Appends nothing for a non-gateway.
  void append_gateway_peers(NodeId id, std::vector<NodeId>& out) const;
  /// Every possible link peer of `id` at `p`, ascending NodeId order (the
  /// order of an exhaustive scan): its layer grid's sorted 3x3 memo,
  /// merged with append_gateway_peers. Assigned into `out`.
  void sorted_candidates(NodeId id, sim::Vec2 p, std::vector<NodeId>& out) const;
  /// Rebuilds every layer grid and the gateway list from the node slabs.
  void rebuild_spatial_index();

  /// Full connectivity rebuild from grid neighborhoods: the seed of the
  /// edge store.
  Topology full_connectivity() const;
  /// Marks the edge store stale and releases it with its move bookkeeping
  /// (used by restore and add_building). The next reader reseeds it
  /// through ensure_links().
  void reseed_links();
  /// Seeds a stale edge store from one full rebuild and sizes its move
  /// bookkeeping — stamps and the dirty list — to the current node count.
  /// A no-op while the store is live.
  /// Every reader of links_ calls it first: patch_links_for_move,
  /// refresh_weights (hence connectivity, topology_view and cached_paths)
  /// and memory_footprint.
  void ensure_links() const;
  /// Patches links_ for a move of live node `id` to `to` (must run BEFORE
  /// the slab position and grid are updated). The store holds exactly the
  /// live, allowed, in-range pairs, so the node's current links are the
  /// only ones that can vanish: each survives iff its peer is in range of
  /// `to`. New links can only come from the 3x3 block of `to` in its layer
  /// grid plus its gateway peers; peers already linked are stamped and
  /// skipped, so each candidate costs one range test. Weights of retained
  /// links are not touched here: the node joins the dirty list and
  /// refresh_weights() re-derives them on the next read. Returns whether
  /// any edge appeared or vanished: whether the move bumps the epoch.
  bool patch_links_for_move(NodeId id, sim::Vec2 to);
  /// Re-derives, on both adjacency sides, the weight of every edge of
  /// every node moved since the last refresh, and empties the dirty list.
  /// Called by every reader of links_ weights.
  void refresh_weights() const;
  /// Adds every edge of a node that just came up / joined (grid must
  /// already contain it). Live store only.
  void attach_links(NodeId id);
  /// Removes every edge of a node that just went down. Live store only.
  void detach_links(NodeId id);

  sim::Simulator& sim_;
  ChannelModel channel_;
  sim::Rng rng_;
  sim::TagId deliver_tag_;  // interned once: tags every in-flight frame event
  /// Trace labels: async span per in-flight frame, drop instants, and the
  /// frames-in-flight counter track. Recorded only while the simulator's
  /// tracer is enabled.
  trace::Name trace_frame_{"net.frame", "net"};
  trace::Name trace_drop_{"net.drop", "net"};
  trace::Name trace_in_flight_{"net.frames_in_flight", "net"};
  std::uint64_t next_frame_trace_id_ = 1;
  std::uint64_t frames_in_flight_ = 0;

  // Node state as structure-of-arrays slabs, parallel by NodeId. The hot
  // sweeps (grid rebuild: positions x up; connectivity: positions x
  // profiles x up; accounting: bytes) each touch only the slabs they need.
  std::vector<sim::Vec2> positions_;
  std::vector<RadioProfile> profiles_;
  std::vector<Handler> handlers_;
  std::vector<std::uint8_t> up_;  // 0/1; vector<bool> would cost a shift per access
  std::vector<LayerId> layers_;
  std::vector<std::uint8_t> gateway_;  // 0/1 inter-layer bridge flag
  std::vector<std::uint64_t> bytes_sent_;
  /// Earliest time each radio's transmitter is free (half-duplex FIFO).
  std::vector<sim::SimTime> tx_free_at_;

  sim::Duration hop_latency_ = sim::Duration::millis(1);
  std::function<void(NodeId, std::size_t)> transmit_hook_;
  std::function<void(DropReason, const Message&)> drop_hook_;
  sim::MetricsRegistry metrics_;
  std::uint64_t frames_dropped_ = 0;
  /// In-flight frame slab + free-list head (see PendingFrame).
  std::vector<PendingFrame> pending_;
  std::uint32_t free_pending_ = kNoPending;
  /// Pre-resolved handles for per-frame metrics (see constructor): the
  /// registry's std::map nodes are pointer-stable, so these stay valid for
  /// the network's lifetime.
  double* bytes_sent_counter_ = nullptr;
  double* frames_sent_counter_ = nullptr;
  double* frames_delivered_counter_ = nullptr;
  sim::Summary* delivery_latency_summary_ = nullptr;
  double* drop_counters_[kDropReasonCount] = {};

  // Spatial index over LIVE nodes (down nodes are removed and re-inserted
  // on recovery), one grid per layer indexed by LayerId. Each grid's cell
  // size tracks the largest radio range seen in its layer: a same-layer
  // link reaches at most min(ra, rb) <= that maximum, so the 3x3
  // neighborhood covers every same-layer link. Cross-layer links exist
  // only between two gateways and are found from gateways_ instead.
  struct LayerGrid {
    SpatialGrid grid;
    double max_range_m = 0.0;
  };
  std::vector<LayerGrid> layer_grids_;
  /// Every node flagged as a gateway (live or not), ascending.
  std::vector<NodeId> gateways_;
  /// Largest radio range over all layers; kept for the snapshot format.
  double max_range_m_ = 0.0;
  /// Candidate scratch buffer for grid queries (avoids an allocation per
  /// broadcast); mutable because const queries reuse it.
  mutable std::vector<NodeId> scratch_;

  /// Persistent connectivity edge store, patched in place by add_node /
  /// set_position / set_node_up / set_gateway while the store is live.
  /// Adjacency lists are kept sorted ascending by neighbor id — the exact
  /// order a full rebuild produces — so copies, Dijkstra tie-breaks, and
  /// digests do not depend on the order edits arrived in. Derived state:
  /// never saved. It is stale at birth and after
  /// every reseed_links(); while stale, mutators skip their edits and the
  /// first reader seeds it with one full rebuild (ensure_links), so a
  /// stack that is built and then restored — every served query — never
  /// pays for a store it throws away. Mutable because const readers seed
  /// it and refresh its weights lazily.
  mutable Topology links_;
  /// True while links_ does not describe the network (see links_).
  mutable bool links_stale_ = true;
  /// Per-node mark of the moving node's current peers (see
  /// patch_links_for_move); a slot is marked iff it equals link_stamp_.
  mutable std::vector<std::uint32_t> link_mark_;
  mutable std::uint32_t link_stamp_ = 0;
  /// Nodes moved since the last weight refresh, each listed once
  /// (weight_dirty_ is the per-node membership flag).
  mutable std::vector<NodeId> dirty_nodes_;
  mutable std::vector<std::uint8_t> weight_dirty_;

  // Shortest-path cache keyed by source, invalidated by epoch bumps.
  std::uint64_t topology_epoch_ = 0;
  struct RouteCacheEntry {
    std::uint64_t epoch = ~0ULL;
    ShortestPaths paths;
  };
  mutable std::vector<RouteCacheEntry> route_cache_;
  const ShortestPaths& cached_paths(NodeId src);
};

}  // namespace iobt::net
