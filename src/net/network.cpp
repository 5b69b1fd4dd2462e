#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "sim/wire.h"

namespace iobt::net {

std::string to_string(DropReason r) {
  switch (r) {
    case DropReason::kOutOfRange: return "out_of_range";
    case DropReason::kChannelLoss: return "channel_loss";
    case DropReason::kNodeDown: return "node_down";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kQueueOverflow: return "queue_overflow";
    case DropReason::kLayerBlocked: return "layer_blocked";
  }
  return "unknown";
}

Network::Network(sim::Simulator& simulator, ChannelModel channel, sim::Rng rng)
    : sim_(simulator), channel_(std::move(channel)), rng_(rng),
      deliver_tag_(simulator.intern("net.deliver")),
      layer_grids_(kLayerCount) {
  resolve_metric_handles();
  sim_.checkpoint().register_participant(this);
}

Network::~Network() {
  const std::vector<bool> free_slot = free_slots();
  for (std::uint32_t s = 0; s < pending_.size(); ++s) {
    if (!free_slot[s]) sim_.cancel(pending_[s].event);
  }
  sim_.checkpoint().unregister(this);
}

void Network::resolve_metric_handles() {
  // Hot-path metric handles: a transmitted frame costs two pointer bumps
  // instead of two string-keyed map walks; digests are unaffected.
  bytes_sent_counter_ = metrics_.counter_handle("net.bytes_sent");
  frames_sent_counter_ = metrics_.counter_handle("net.frames_sent");
  frames_delivered_counter_ = metrics_.counter_handle("net.frames_delivered");
  delivery_latency_summary_ = metrics_.summary_handle("net.delivery_latency_s");
  for (const DropReason r :
       {DropReason::kOutOfRange, DropReason::kChannelLoss, DropReason::kNodeDown,
        DropReason::kNoRoute, DropReason::kQueueOverflow,
        DropReason::kLayerBlocked}) {
    drop_counters_[static_cast<std::size_t>(r)] =
        metrics_.counter_handle("net.drop." + to_string(r));
  }
}

NodeId Network::add_node(sim::Vec2 position, RadioProfile profile, LayerId layer) {
  const auto id = static_cast<NodeId>(positions_.size());
  positions_.push_back(position);
  profiles_.push_back(profile);
  handlers_.emplace_back();
  up_.push_back(1);
  layers_.push_back(layer);
  gateway_.push_back(0);
  bytes_sent_.push_back(0);
  tx_free_at_.push_back(sim::SimTime::zero());
  route_cache_.emplace_back();
  max_range_m_ = std::max(max_range_m_, profile.range_m);
  if (layer >= layer_grids_.size()) layer_grids_.resize(layer + 1u);
  LayerGrid& lg = layer_grids_[layer];
  if (profile.range_m > lg.max_range_m) {
    // A longer radio breaks the cells-cover-range invariant of its layer:
    // rebuild that layer's grid around the new maximum before indexing the
    // newcomer. Other layers' grids and the edge store are untouched:
    // every existing link depends on the min of two unchanged ranges.
    lg.max_range_m = profile.range_m;
    lg.grid.reset(lg.max_range_m);
    for (NodeId n = 0; n < id; ++n) {
      if (up_[n] && layers_[n] == layer) lg.grid.insert(n, positions_[n]);
    }
  }
  lg.grid.insert(id, position);
  if (!links_stale_) {
    links_.add_node();
    link_mark_.push_back(0);
    weight_dirty_.push_back(0);
    attach_links(id);
  }
  invalidate_routes();
  return id;
}

void Network::set_handler(NodeId id, Handler h) { handlers_.at(id) = std::move(h); }

void Network::set_position(NodeId id, sim::Vec2 p) {
  const sim::Vec2 from = positions_.at(id);
  if (from == p) return;
  if (!up_[id]) {
    // A down node is invisible to the topology (and absent from the grid):
    // reposition silently.
    positions_[id] = p;
    return;
  }
  // The patch learns whether any link appeared/vanished as a byproduct.
  // It runs BEFORE the slab position and grid move: it range-tests
  // against the old slab.
  const bool changed = patch_links_for_move(id, p);
  positions_[id] = p;
  grid_of(id).move(id, from, p);
  // Region-scoped invalidation: a move that gains or loses no link leaves
  // every cached route structurally intact, so the epoch — and with it
  // every Dijkstra rebuild downstream — is only paid when an in-range
  // relationship actually changed.
  if (changed) invalidate_routes();
}

void Network::set_node_up(NodeId id, bool up) {
  if ((up_.at(id) != 0) == up) return;
  up_[id] = up ? 1 : 0;
  if (up) {
    grid_of(id).insert(id, positions_[id]);
    if (!links_stale_) attach_links(id);
  } else {
    grid_of(id).remove(id, positions_[id]);
    if (!links_stale_) detach_links(id);
  }
  invalidate_routes();
}

void Network::set_gateway(NodeId id, bool on) {
  if ((gateway_.at(id) != 0) == on) return;
  bool changed = false;
  if (up_[id]) {
    // Affected links are exactly the cross-layer links to other live
    // in-range gateways: same-layer links ignore the flag, and a non-
    // gateway peer blocks the bridge regardless. Candidates come from the
    // gateway list, so the changed/unchanged answer — and with it the
    // epoch — is computed even while the edge store is stale and takes no
    // edits.
    const sim::Vec2 p = positions_[id];
    const RadioProfile& pr = profiles_[id];
    for (const NodeId other : gateways_) {
      if (!up_[other] || layers_[other] == layers_[id]) continue;
      if (!channel_.in_range(p, pr, positions_[other], profiles_[other])) continue;
      changed = true;
      if (!links_stale_) {
        if (on) {
          links_.add_edge_sorted(id, other, sim::distance(p, positions_[other]));
        } else {
          links_.remove_edge(id, other);
        }
      }
    }
  }
  gateway_[id] = on ? 1 : 0;
  const auto pos = std::lower_bound(gateways_.begin(), gateways_.end(), id);
  if (on) {
    gateways_.insert(pos, id);
  } else {
    gateways_.erase(pos);
  }
  if (changed) invalidate_routes();
}

void Network::add_building(sim::Rect footprint) {
  channel_.add_building(footprint);
  reseed_links();
  invalidate_routes();
}

void Network::append_gateway_peers(NodeId id, std::vector<NodeId>& out) const {
  if (!gateway_[id]) return;
  for (const NodeId g : gateways_) {
    if (up_[g] && layers_[g] != layers_[id]) out.push_back(g);
  }
}

void Network::sorted_candidates(NodeId id, sim::Vec2 p,
                                std::vector<NodeId>& out) const {
  const std::vector<NodeId>& hood = grid_of(id).neighborhood_sorted(p);
  out.assign(hood.begin(), hood.end());
  const auto same_layer = static_cast<std::ptrdiff_t>(out.size());
  append_gateway_peers(id, out);
  // Disjoint ascending runs (own layer vs other layers): one merge.
  std::inplace_merge(out.begin(), out.begin() + same_layer, out.end());
}

bool Network::patch_links_for_move(NodeId id, sim::Vec2 to) {
  ensure_links();
  if (++link_stamp_ == 0) {
    // Stamp wrap-around: forget every mark so stale ones cannot collide.
    std::fill(link_mark_.begin(), link_mark_.end(), 0);
    link_stamp_ = 1;
  }
  const RadioProfile& pr = profiles_[id];
  // Survivors: the store holds every current link, so each existing peer
  // is marked and kept iff it is still in range of `to`. The layer
  // predicate cannot flip on a move.
  scratch_.clear();
  for (const Topology::Neighbor& n : links_.neighbors(id)) {
    link_mark_[n.id] = link_stamp_;
    if (!channel_.in_range(to, pr, positions_[n.id], profiles_[n.id])) {
      scratch_.push_back(n.id);
    }
  }
  // remove_edge mutates the list walked above, hence the copy.
  for (const NodeId other : scratch_) links_.remove_edge(id, other);
  bool changed = !scratch_.empty();
  // Additions: any new peer lies in the 3x3 block of `to` in the layer
  // grid (covering invariant) or among the gateway peers. add_edge_sorted
  // is order-independent, so candidates need no sort.
  scratch_.clear();
  grid_of(id).neighborhood(to, scratch_);
  append_gateway_peers(id, scratch_);
  for (const NodeId other : scratch_) {
    if (other == id || link_mark_[other] == link_stamp_) continue;
    if (channel_.in_range(to, pr, positions_[other], profiles_[other])) {
      links_.add_edge_sorted(id, other, sim::distance(to, positions_[other]));
      changed = true;
    }
  }
  if (!weight_dirty_[id]) {
    weight_dirty_[id] = 1;
    dirty_nodes_.push_back(id);
  }
  return changed;
}

void Network::refresh_weights() const {
  ensure_links();
  // std::hypot via sim::distance, exactly as full_connectivity computes it:
  // sqrt(distance2) can differ in the last bit and flip route tie-breaks.
  for (const NodeId id : dirty_nodes_) {
    const sim::Vec2 p = positions_[id];
    links_.reweigh_sorted(
        id, [&](NodeId other) { return sim::distance(p, positions_[other]); });
    weight_dirty_[id] = 0;
  }
  dirty_nodes_.clear();
}

void Network::attach_links(NodeId id) {
  const sim::Vec2 p = positions_[id];
  const RadioProfile& pr = profiles_[id];
  scratch_.clear();
  grid_of(id).neighborhood(p, scratch_);
  append_gateway_peers(id, scratch_);
  for (const NodeId other : scratch_) {
    if (other == id) continue;
    if (channel_.in_range(p, pr, positions_[other], profiles_[other])) {
      links_.add_edge_sorted(id, other, sim::distance(p, positions_[other]));
    }
  }
}

void Network::detach_links(NodeId id) {
  // Copy the ids out first: remove_edge mutates the list being walked.
  scratch_.clear();
  for (const Topology::Neighbor& n : links_.neighbors(id)) scratch_.push_back(n.id);
  for (const NodeId other : scratch_) links_.remove_edge(id, other);
}

std::vector<NodeId> Network::nodes_near(sim::Vec2 p, double radius) const {
  std::vector<NodeId> out;
  // Each live id sits in exactly one layer grid: the union is
  // duplicate-free.
  for (const LayerGrid& lg : layer_grids_) lg.grid.near(p, radius, out);
  std::sort(out.begin(), out.end());
  return out;
}

void Network::drop(DropReason reason, const Message& msg) {
  ++frames_dropped_;
  *drop_counters_[static_cast<std::size_t>(reason)] += 1.0;
  trace::Tracer& tr = sim_.tracer();
  if (tr.enabled()) tr.instant(trace_drop_.id(tr));
  if (drop_hook_) drop_hook_(reason, msg);
}

bool Network::transmit(NodeId src, NodeId dst, Message msg,
                       const std::vector<NodeId>* remaining_path) {
  if (!up_.at(src) || !up_.at(dst)) {
    drop(DropReason::kNodeDown, msg);
    return false;
  }
  if (!link_allowed(src, dst)) {
    drop(DropReason::kLayerBlocked, msg);
    return false;
  }
  const sim::Vec2 sp = positions_[src];
  const RadioProfile& spr = profiles_[src];
  if (!channel_.in_range(sp, spr, positions_[dst], profiles_[dst])) {
    drop(DropReason::kOutOfRange, msg);
    return false;
  }

  // Half-duplex transmitter: frames serialize on the sender's radio.
  const sim::Duration tx = ChannelModel::transmission_delay(spr, msg.size_bytes);
  const sim::SimTime start = std::max(sim_.now(), tx_free_at_[src]);
  tx_free_at_[src] = start + tx;
  const sim::SimTime arrive = tx_free_at_[src] + hop_latency_;

  bytes_sent_[src] += msg.size_bytes;
  *bytes_sent_counter_ += static_cast<double>(msg.size_bytes);
  *frames_sent_counter_ += 1.0;
  if (transmit_hook_) transmit_hook_(src, msg.size_bytes);

  // Loss is decided now (deterministically from the RNG stream) but takes
  // effect at arrival time.
  const double loss = channel_.loss_probability(sp, spr, positions_[dst],
                                                profiles_[dst], sim_.now());
  const bool lost = rng_.bernoulli(loss);

  // Async trace span per frame on the air: begin at transmit, end at
  // delivery or loss. frames_in_flight_ is maintained unconditionally (two
  // integer ops) so the counter track is correct however late tracing was
  // enabled; records themselves cost nothing while tracing is off.
  ++frames_in_flight_;
  std::uint64_t frame_trace = 0;
  {
    trace::Tracer& tr = sim_.tracer();
    if (tr.enabled()) {
      frame_trace = next_frame_trace_id_++;
      tr.async_begin(trace_frame_.id(tr), frame_trace);
      tr.counter(trace_in_flight_.id(tr), static_cast<double>(frames_in_flight_));
    }
  }

  // Park the frame in the slab and schedule a {this, slot} closure.
  std::uint32_t slot;
  if (free_pending_ != kNoPending) {
    slot = free_pending_;
    free_pending_ = pending_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  PendingFrame& f = pending_[slot];
  f.msg = std::move(msg);
  f.path_tail.clear();
  if (remaining_path) {
    f.path_tail.assign(remaining_path->begin(), remaining_path->end());
  }
  f.frame_trace = frame_trace;
  f.dst = dst;
  f.lost = lost;
  f.deliver_at = arrive;
  f.event = sim_.schedule_at(arrive, [this, slot] { deliver_pending(slot); }, deliver_tag_);
  return true;
}

void Network::deliver_pending(std::uint32_t slot) {
  --frames_in_flight_;
  trace::Tracer& tr = sim_.tracer();
  if (pending_[slot].frame_trace != 0 && tr.enabled()) {
    tr.async_end(trace_frame_.id(tr), pending_[slot].frame_trace);
    tr.counter(trace_in_flight_.id(tr), static_cast<double>(frames_in_flight_));
  }
  // Move the frame out and recycle the slot BEFORE acting on it: drop
  // hooks, receiver handlers, and multi-hop forwarding can all re-enter
  // transmit(), which may grow pending_ and invalidate references into it.
  Message msg = std::move(pending_[slot].msg);
  std::vector<NodeId> path_tail = std::move(pending_[slot].path_tail);
  const NodeId dst = pending_[slot].dst;
  const bool lost = pending_[slot].lost;
  pending_[slot].event = sim::kNoEvent;
  pending_[slot].next_free = free_pending_;
  free_pending_ = slot;

  if (lost) {
    drop(DropReason::kChannelLoss, msg);
    return;
  }
  if (!up_.at(dst)) {
    drop(DropReason::kNodeDown, msg);
    return;
  }
  ++msg.hops;
  if (!path_tail.empty()) {
    // Intermediate hop: forward along the precomputed path.
    const NodeId next = path_tail.front();
    std::vector<NodeId> rest(path_tail.begin() + 1, path_tail.end());
    transmit(dst, next, std::move(msg), rest.empty() ? nullptr : &rest);
    return;
  }
  *frames_delivered_counter_ += 1.0;
  delivery_latency_summary_->add((sim_.now() - msg.sent_at).to_seconds());
  if (handlers_[dst]) handlers_[dst](msg);
}

bool Network::send(NodeId src, NodeId dst, Message msg) {
  msg.src = src;
  msg.dst = dst;
  msg.sent_at = sim_.now();
  return transmit(src, dst, std::move(msg), nullptr);
}

std::size_t Network::broadcast(NodeId src, Message msg) {
  msg.src = src;
  msg.dst = kBroadcast;
  msg.sent_at = sim_.now();
  if (!up_.at(src)) {
    drop(DropReason::kNodeDown, msg);
    return 0;
  }
  const sim::Vec2 sp = positions_[src];
  const RadioProfile& spr = profiles_[src];
  std::size_t put_on_air = 0;
  const auto offer = [&](NodeId other) {
    if (other == src || !up_[other] || !link_allowed(src, other)) return;
    if (!channel_.in_range(sp, spr, positions_[other], profiles_[other])) {
      return;
    }
    Message copy = msg;
    if (transmit(src, other, std::move(copy), nullptr)) ++put_on_air;
  };
  // The layer grid's 3x3 neighborhood plus the gateway peers covers every
  // receiver. Candidates are offered in ascending NodeId order — the order
  // of an exhaustive scan — so the per-receiver loss draws consume the RNG
  // stream in a fixed order. Copied into scratch_ because drop/transmit
  // hooks run synchronously inside offer() and must not be able to
  // invalidate the memo mid-walk.
  sorted_candidates(src, sp, scratch_);
  for (const NodeId other : scratch_) offer(other);
  return put_on_air;
}

const ShortestPaths& Network::cached_paths(NodeId src) {
  RouteCacheEntry& entry = route_cache_.at(src);
  if (entry.epoch != topology_epoch_) {
    // Dijkstra runs straight over the live edge store.
    refresh_weights();
    entry.paths = links_.shortest_paths(src);
    entry.epoch = topology_epoch_;
  }
  return entry.paths;
}

bool Network::route_exists(NodeId src, NodeId dst) {
  if (src >= node_count() || dst >= node_count()) return false;
  if (!up_[src] || !up_[dst]) return false;
  return cached_paths(src).reachable(dst);
}

bool Network::route_and_send(NodeId src, NodeId dst, Message msg) {
  msg.src = src;
  msg.dst = dst;
  msg.sent_at = sim_.now();
  // Unknown endpoints: no route by definition — mirror route_exists
  // instead of letting the slab .at() throw out of the send path.
  if (src >= node_count() || dst >= node_count()) {
    drop(DropReason::kNoRoute, msg);
    return false;
  }
  if (src == dst) {
    // Local delivery, zero hops — but a dead radio delivers nothing, not
    // even to itself (route_exists performs the same liveness check).
    if (!up_[src]) {
      drop(DropReason::kNodeDown, msg);
      return false;
    }
    if (handlers_[src]) handlers_[src](msg);
    return true;
  }
  const auto path = cached_paths(src).path_to(dst);
  if (path.size() < 2) {
    drop(DropReason::kNoRoute, msg);
    return false;
  }
  // path = [src, n1, n2, ..., dst]; first hop src->n1, tail n2..dst.
  std::vector<NodeId> tail(path.begin() + 2, path.end());
  return transmit(src, path[1], std::move(msg), tail.empty() ? nullptr : &tail);
}

Topology Network::connectivity() const {
  refresh_weights();
  return links_;
}

const Topology& Network::topology_view() const {
  refresh_weights();
  return links_;
}

void Network::reseed_links() {
  links_stale_ = true;
  links_ = Topology();
  link_mark_.clear();
  // A restore can shrink the node count: stale dirty ids must not survive.
  weight_dirty_.clear();
  dirty_nodes_.clear();
}

void Network::ensure_links() const {
  if (!links_stale_) return;
  links_ = full_connectivity();
  link_mark_.assign(node_count(), 0);
  link_stamp_ = 0;
  weight_dirty_.assign(node_count(), 0);
  links_stale_ = false;
}

Topology Network::full_connectivity() const {
  // Edges are collected into a flat list and the Topology is built in one
  // bulk pass with exact-size adjacency reserves. The list order is that
  // of an exhaustive pair scan (a ascending, then b > a ascending), so the
  // adjacency lists — and every tie-break downstream in Dijkstra — match
  // the id-sorted lists the store keeps under patching.
  //
  // Grid neighborhoods come from the per-cell sorted memo: all nodes
  // sharing a cell share one gathered + sorted candidate list. A gateway's
  // list is merged with its cross-layer peers.
  std::vector<Edge> edges;
  std::vector<NodeId> merged;
  for (NodeId a = 0; a < node_count(); ++a) {
    if (!up_[a]) continue;
    const std::vector<NodeId>* candidates = &merged;
    if (gateway_[a]) {
      sorted_candidates(a, positions_[a], merged);
    } else {
      candidates = &grid_of(a).neighborhood_sorted(positions_[a]);
    }
    for (const NodeId b : *candidates) {
      if (b <= a) continue;
      if (channel_.in_range(positions_[a], profiles_[a], positions_[b], profiles_[b])) {
        edges.push_back({a, b, sim::distance(positions_[a], positions_[b])});
      }
    }
  }
  return Topology(node_count(), edges);
}

void Network::rebuild_spatial_index() {
  // Per-layer maxima are recomputed from the profile slab (the snapshot
  // carries only the global max_range_m). A layer without a positive range
  // keeps the 250 m cell of a default-constructed grid.
  std::size_t layer_count = kLayerCount;
  for (const LayerId l : layers_) layer_count = std::max<std::size_t>(layer_count, l + 1u);
  layer_grids_.assign(layer_count, LayerGrid());
  for (NodeId n = 0; n < node_count(); ++n) {
    double& m = layer_grids_[layers_[n]].max_range_m;
    m = std::max(m, profiles_[n].range_m);
  }
  for (LayerGrid& lg : layer_grids_) {
    lg.grid.reset(lg.max_range_m > 0.0 ? lg.max_range_m : 250.0);
  }
  gateways_.clear();
  for (NodeId n = 0; n < node_count(); ++n) {
    if (up_[n]) grid_of(n).insert(n, positions_[n]);
    if (gateway_[n]) gateways_.push_back(n);
  }
}

std::vector<bool> Network::free_slots() const {
  std::vector<bool> free_slot(pending_.size(), false);
  for (std::uint32_t s = free_pending_; s != kNoPending; s = pending_[s].next_free) {
    free_slot[s] = true;
  }
  return free_slot;
}

Network::MemoryFootprint Network::memory_footprint() const {
  ensure_links();
  MemoryFootprint m;
  m.node_slabs = positions_.capacity() * sizeof(sim::Vec2) +
                 profiles_.capacity() * sizeof(RadioProfile) +
                 handlers_.capacity() * sizeof(Handler) +
                 up_.capacity() * sizeof(std::uint8_t) +
                 layers_.capacity() * sizeof(LayerId) +
                 gateway_.capacity() * sizeof(std::uint8_t) +
                 bytes_sent_.capacity() * sizeof(std::uint64_t) +
                 tx_free_at_.capacity() * sizeof(sim::SimTime);
  m.grid = gateways_.capacity() * sizeof(NodeId);
  for (const LayerGrid& lg : layer_grids_) m.grid += lg.grid.memory_bytes();
  m.links = links_.memory_bytes() + link_mark_.capacity() * sizeof(std::uint32_t) +
            weight_dirty_.capacity() * sizeof(std::uint8_t) +
            dirty_nodes_.capacity() * sizeof(NodeId);
  m.route_cache = route_cache_.capacity() * sizeof(RouteCacheEntry);
  for (const RouteCacheEntry& e : route_cache_) {
    m.route_cache += e.paths.dist.capacity() * sizeof(double) +
                     e.paths.parent.capacity() * sizeof(std::optional<NodeId>);
  }
  m.pending = pending_.capacity() * sizeof(PendingFrame);
  for (const PendingFrame& f : pending_) {
    m.pending += f.path_tail.capacity() * sizeof(NodeId);
  }
  return m;
}

void Network::save(sim::Snapshot& snap, const std::string& key) const {
  CheckpointState st;
  // Handlers are live-stack closures and stay out of the snapshot; the
  // grid, edge store, and route cache are derived state rebuilt on
  // restore.
  st.positions = positions_;
  st.profiles = profiles_;
  st.up = up_;
  st.layers = layers_;
  st.gateway = gateway_;
  st.node_bytes_sent = bytes_sent_;
  st.tx_free_at = tx_free_at_;
  st.channel = channel_;
  st.rng = rng_;
  st.metrics = metrics_;
  st.frames_dropped = frames_dropped_;
  st.hop_latency = hop_latency_;
  st.next_frame_trace_id = next_frame_trace_id_;
  st.max_range_m = max_range_m_;
  st.topology_epoch = topology_epoch_;
  const std::vector<bool> free_slot = free_slots();
  for (std::uint32_t s = 0; s < pending_.size(); ++s) {
    if (free_slot[s]) continue;
    const PendingFrame& f = pending_[s];
    st.in_flight.push_back(SavedFrame{f.msg, f.path_tail, f.dst, f.lost,
                                      f.deliver_at, sim_.pending_seq(f.event)});
  }
  snap.put(key, std::move(st));
}

void Network::restore(const sim::Snapshot& snap, const std::string& key,
                      sim::RestoreArmer& armer) {
  const auto& st = snap.get<CheckpointState>(key);

  // Cancel every live delivery and drop the slab; it is rebuilt below.
  const std::vector<bool> free_slot = free_slots();
  for (std::uint32_t s = 0; s < pending_.size(); ++s) {
    if (!free_slot[s]) sim_.cancel(pending_[s].event);
  }
  pending_.clear();
  free_pending_ = kNoPending;

  // Node slabs: adopt the saved state but keep whatever handlers the
  // restoring stack already installed per node (construction-time firmware
  // on a fresh branch stack, everything on an in-place rewind). Nodes past
  // the saved count (post-snapshot Sybils on a rewind) disappear; nodes
  // past the restoring stack's count (pre-snapshot Sybils restored into a
  // fresh stack) arrive with null handlers until their owning service's
  // participant re-installs them.
  handlers_.resize(st.positions.size());
  positions_ = st.positions;
  profiles_ = st.profiles;
  up_ = st.up;
  // Layer tags and gateway flags must land before the edge-store reseed
  // below: full_connectivity consults link_allowed.
  layers_ = st.layers;
  gateway_ = st.gateway;
  bytes_sent_ = st.node_bytes_sent;
  tx_free_at_ = st.tx_free_at;

  channel_ = st.channel;
  rng_ = st.rng;
  metrics_ = st.metrics;
  resolve_metric_handles();
  frames_dropped_ = st.frames_dropped;
  hop_latency_ = st.hop_latency;
  next_frame_trace_id_ = st.next_frame_trace_id;
  frames_in_flight_ = st.in_flight.size();
  max_range_m_ = st.max_range_m;
  topology_epoch_ = st.topology_epoch;
  route_cache_.assign(node_count(), RouteCacheEntry{});

  rebuild_spatial_index();
  // The edge store is derived state: its first reader reseeds it from the
  // restored slabs.
  reseed_links();

  // Re-park every in-flight frame and queue its delivery re-arm under the
  // frame's original FIFO seq. reserve() first: &p.event must stay valid
  // until the registry schedules the re-arms.
  pending_.reserve(st.in_flight.size());
  for (const SavedFrame& f : st.in_flight) {
    const auto slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
    PendingFrame& p = pending_[slot];
    p.msg = f.msg;
    p.path_tail = f.path_tail;
    p.frame_trace = 0;  // async trace spans do not survive restore
    p.dst = f.dst;
    p.lost = f.lost;
    p.deliver_at = f.deliver_at;
    armer.rearm(f.deliver_at, f.seq, [this, slot] { deliver_pending(slot); },
                deliver_tag_, &p.event);
  }
}

bool Network::encode_state(const sim::Snapshot& snap, const std::string& key,
                           sim::WireWriter& w) const {
  const auto& st = snap.get<CheckpointState>(key);
  // Structured payloads (std::any) cannot cross a process boundary; gossip
  // traffic and every other wire-shaped message travel payload-free, so in
  // practice only exotic snapshots are rejected here.
  for (const SavedFrame& f : st.in_flight) {
    if (f.msg.payload.has_value()) return false;
  }
  w.u64(st.positions.size());
  for (sim::Vec2 p : st.positions) w.vec2(p);
  for (const RadioProfile& p : st.profiles) {
    w.f64(p.range_m).f64(p.data_rate_bps).f64(p.base_loss);
  }
  for (std::uint8_t v : st.up) w.u64(v);
  for (LayerId l : st.layers) w.u64(l);
  for (std::uint8_t v : st.gateway) w.u64(v);
  for (std::uint64_t b : st.node_bytes_sent) w.u64(b);
  for (sim::SimTime t : st.tx_free_at) w.time(t);

  w.f64(st.channel.edge_exponent()).f64(st.channel.max_edge_loss());
  w.u64(st.channel.jammers().size());
  for (const Jammer& j : st.channel.jammers()) {
    w.vec2(j.center).f64(j.radius_m).time(j.start).time(j.end).f64(j.induced_loss);
  }
  w.u64(st.channel.buildings().size());
  for (const Building& b : st.channel.buildings()) w.rect(b.footprint);

  w.rng(st.rng);
  w.bytes(st.metrics.serialize());
  w.u64(st.frames_dropped)
      .dur(st.hop_latency)
      .u64(st.next_frame_trace_id)
      .f64(st.max_range_m)
      .u64(st.topology_epoch);
  w.u64(st.in_flight.size());
  for (const SavedFrame& f : st.in_flight) {
    w.u64(f.msg.src).u64(f.msg.dst).bytes(f.msg.kind).u64(f.msg.size_bytes)
        .i64(f.msg.hops).time(f.msg.sent_at);
    w.u64(f.path_tail.size());
    for (NodeId n : f.path_tail) w.u64(n);
    w.u64(f.dst).boolean(f.lost).time(f.deliver_at).u64(f.seq);
  }
  return true;
}

bool Network::decode_state(sim::Snapshot& snap, const std::string& key,
                           sim::WireReader& r) const {
  CheckpointState st;
  const std::uint64_t nodes = r.u64();
  if (!r.ok() || nodes > r.remaining()) return false;
  const auto n = static_cast<std::size_t>(nodes);
  st.positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) st.positions.push_back(r.vec2());
  st.profiles.resize(n);
  for (RadioProfile& p : st.profiles) {
    p.range_m = r.f64();
    p.data_rate_bps = r.f64();
    p.base_loss = r.f64();
  }
  st.up.resize(n);
  for (std::uint8_t& v : st.up) v = static_cast<std::uint8_t>(r.u64());
  st.layers.resize(n);
  for (LayerId& l : st.layers) l = static_cast<LayerId>(r.u64());
  st.gateway.resize(n);
  for (std::uint8_t& v : st.gateway) v = static_cast<std::uint8_t>(r.u64());
  st.node_bytes_sent.resize(n);
  for (std::uint64_t& b : st.node_bytes_sent) b = r.u64();
  st.tx_free_at.resize(n);
  for (sim::SimTime& t : st.tx_free_at) t = r.time();

  const double edge_exponent = r.f64();
  const double max_edge_loss = r.f64();
  st.channel = ChannelModel(edge_exponent, max_edge_loss);
  const std::uint64_t jammers = r.u64();
  if (!r.ok() || jammers > r.remaining()) return false;
  for (std::uint64_t i = 0; i < jammers; ++i) {
    Jammer j;
    j.center = r.vec2();
    j.radius_m = r.f64();
    j.start = r.time();
    j.end = r.time();
    j.induced_loss = r.f64();
    st.channel.add_jammer(j);
  }
  const std::uint64_t buildings = r.u64();
  if (!r.ok() || buildings > r.remaining()) return false;
  for (std::uint64_t i = 0; i < buildings; ++i) st.channel.add_building(r.rect());

  st.rng = r.rng();
  auto metrics = sim::MetricsRegistry::deserialize(r.bytes_view());
  if (!metrics) return false;
  st.metrics = std::move(*metrics);
  st.frames_dropped = r.u64();
  st.hop_latency = r.dur();
  st.next_frame_trace_id = r.u64();
  st.max_range_m = r.f64();
  st.topology_epoch = r.u64();
  const std::uint64_t frames = r.u64();
  if (!r.ok() || frames > r.remaining()) return false;
  st.in_flight.resize(static_cast<std::size_t>(frames));
  for (SavedFrame& f : st.in_flight) {
    f.msg.src = static_cast<NodeId>(r.u64());
    f.msg.dst = static_cast<NodeId>(r.u64());
    f.msg.kind = r.bytes();
    f.msg.size_bytes = static_cast<std::size_t>(r.u64());
    f.msg.hops = static_cast<int>(r.i64());
    f.msg.sent_at = r.time();
    const std::uint64_t tail = r.u64();
    if (!r.ok() || tail > r.remaining()) return false;
    f.path_tail.resize(static_cast<std::size_t>(tail));
    for (NodeId& hop : f.path_tail) hop = static_cast<NodeId>(r.u64());
    f.dst = static_cast<NodeId>(r.u64());
    f.lost = r.boolean();
    f.deliver_at = r.time();
    f.seq = r.u64();
  }
  if (!r.ok()) return false;
  snap.put(key, std::move(st));
  return true;
}

std::uint64_t Network::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : bytes_sent_) total += b;
  return total;
}

}  // namespace iobt::net
