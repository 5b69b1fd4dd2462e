#include "sim/checkpoint.h"

#include <algorithm>
#include <stdexcept>

#include "sim/wire.h"

namespace iobt::sim {

std::string CheckpointRegistry::register_participant(Checkpointable* p) {
  std::string key{p->checkpoint_key()};
  // Deterministic de-duplication: the n-th participant claiming a key gets
  // "#<n>". Branch stacks built by the same scenario code register in the
  // same order, so suffixes line up between save and restore stacks.
  const auto taken = [this](const std::string& k) {
    return std::any_of(participants_.begin(), participants_.end(),
                       [&](const Entry& e) { return e.key == k; });
  };
  if (taken(key)) {
    for (int n = 2;; ++n) {
      std::string candidate = key + "#" + std::to_string(n);
      if (!taken(candidate)) {
        key = std::move(candidate);
        break;
      }
    }
  }
  participants_.push_back(Entry{key, p});
  return key;
}

void CheckpointRegistry::unregister(const Checkpointable* p) {
  std::erase_if(participants_,
                [p](const Entry& e) { return e.participant == p; });
}

Snapshot CheckpointRegistry::save(std::uint64_t prefix_hash) const {
  Snapshot snap;
  snap.at_ = sim_.now();
  snap.prefix_hash_ = prefix_hash;
  for (const Entry& e : participants_) e.participant->save(snap, e.key);
  return snap;
}

void CheckpointRegistry::restore(const Snapshot& snap) {
  // The restore stack must mirror the save stack: same participants, same
  // registration order. Verify the key sets up front for a usable error
  // instead of a mid-restore type mismatch.
  if (snap.blobs_.size() != participants_.size()) {
    throw std::logic_error(
        "CheckpointRegistry::restore: snapshot has " +
        std::to_string(snap.blobs_.size()) + " participant states but " +
        std::to_string(participants_.size()) +
        " participants are registered — the restore stack must be built by "
        "the same scenario code as the saved one");
  }
  for (const Entry& e : participants_) {
    if (!snap.has(e.key)) {
      throw std::logic_error(
          "CheckpointRegistry::restore: snapshot is missing state for "
          "participant '" + e.key + "'");
    }
  }

  // Clock first: participants may consult now() while restoring, and the
  // re-arm below schedules at absolute snapshot-era timestamps.
  sim_.now_ = snap.at_;

  RestoreArmer armer;
  for (const Entry& e : participants_) {
    e.participant->restore(snap, e.key, armer);
  }

  // Every event pending in THIS stack must have been cancelled by its
  // participant. A survivor belongs to a non-participating event source,
  // which the registry cannot re-arm deterministically — refuse rather
  // than silently diverge the branch.
  if (sim_.pending_count() != 0) {
    throw std::logic_error(
        "CheckpointRegistry::restore: " +
        std::to_string(sim_.pending_count()) +
        " pending event(s) survived participant restore — every event "
        "source must be a checkpoint participant");
  }

  // Re-arm in ascending original-seq order. Pending-at-t events all have
  // seqs below anything scheduled after t, so replaying their relative
  // order — before any post-restore scheduling — reproduces every FIFO
  // tie-break of the uninterrupted run.
  std::stable_sort(armer.pending_.begin(), armer.pending_.end(),
                   [](const RestoreArmer::Pending& a,
                      const RestoreArmer::Pending& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < armer.pending_.size(); ++i) {
    RestoreArmer::Pending& p = armer.pending_[i];
    if (p.seq == 0 || (i > 0 && armer.pending_[i - 1].seq == p.seq)) {
      throw std::logic_error(
          "CheckpointRegistry::restore: re-arm requests must carry the "
          "event's unique original seq (got " + std::to_string(p.seq) + ")");
    }
    const EventId id = sim_.schedule_at(p.when, std::move(p.fn), p.tag);
    if (p.armed_out) *p.armed_out = id;
  }
}

bool CheckpointRegistry::serialize_snapshot(const Snapshot& snap,
                                            std::string& out) const {
  WireWriter w;
  w.u64(snap.prefix_hash_).i64(snap.at_.nanos()).u64(participants_.size());
  for (const Entry& e : participants_) {
    const auto* s = dynamic_cast<const SerializableCheckpointable*>(e.participant);
    if (s == nullptr) return false;
    WireWriter blob;
    if (!s->encode_state(snap, e.key, blob)) return false;
    w.bytes(e.key);
    w.bytes(blob.out());
  }
  out = w.take();
  return true;
}

std::optional<Snapshot> CheckpointRegistry::deserialize_snapshot(
    std::string_view bytes) const {
  WireReader r(bytes);
  Snapshot snap;
  snap.prefix_hash_ = r.u64();
  snap.at_ = SimTime(r.i64());
  const std::uint64_t count = r.u64();
  if (!r.ok() || count != participants_.size()) return std::nullopt;
  for (const Entry& e : participants_) {
    const auto* s = dynamic_cast<const SerializableCheckpointable*>(e.participant);
    if (s == nullptr) return std::nullopt;
    const std::string_view key = r.bytes_view();
    const std::string_view blob = r.bytes_view();
    // The image must have been written over a roster built by the same
    // scenario code: key order is the participant dispatch.
    if (!r.ok() || key != e.key) return std::nullopt;
    WireReader br(blob);
    // A decoder must consume its blob exactly — leftover bytes mean the
    // image was written by a different state layout (version skew).
    if (!s->decode_state(snap, e.key, br) || !br.ok() || !br.at_end()) {
      return std::nullopt;
    }
  }
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return snap;
}

}  // namespace iobt::sim
