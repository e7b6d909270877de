#ifndef AURORA_STORAGE_CONTROL_PLANE_H_
#define AURORA_STORAGE_CONTROL_PLANE_H_

#include <array>
#include <functional>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "log/types.h"
#include "sim/topology.h"

namespace aurora {

class StorageNode;

/// Replica placement of one protection group: six segment replicas, two per
/// AZ across three AZs (§2.1).
struct PgMembership {
  std::array<sim::NodeId, kReplicasPerPg> nodes;
  uint64_t config_epoch = 0;
  /// Page size the volume was created with; member hosts materialize their
  /// segment replica lazily from this (see StorageNode::EnsureSegment).
  size_t page_size = 0;

  int IndexOf(sim::NodeId node) const {
    for (int i = 0; i < kReplicasPerPg; ++i) {
      if (nodes[i] == node) return i;
    }
    return -1;
  }
};

/// The storage control plane — the role DynamoDB + SWF play in §5: durable
/// volume configuration (PG membership) and orchestration metadata. Modeled
/// as an out-of-band, always-available service (direct method calls rather
/// than simulated messages; the paper's control plane is not on the data
/// path).
class ControlPlane {
 public:
  ControlPlane(const sim::Topology* topology, Random rng)
      : topology_(topology), rng_(rng) {}

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Registers a storage host available for segment placement.
  void RegisterStorageNode(sim::NodeId id, StorageNode* node) {
    nodes_[id] = node;
  }
  StorageNode* node(sim::NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second;
  }
  const std::map<sim::NodeId, StorageNode*>& storage_nodes() const {
    return nodes_;
  }

  /// Creates a protection group: picks two storage hosts in each of three
  /// AZs ("segments are placed with high entropy", §3.3 — randomized,
  /// load-spread placement) and records the membership. Member hosts
  /// materialize their segment replicas lazily on first contact
  /// (StorageNode::EnsureSegment).
  PgId CreatePg(size_t page_size);

  size_t num_pgs() const { return memberships_.size(); }
  /// The returned reference is stable (map nodes never move); its contents
  /// change only via ReplaceReplica.
  const PgMembership& membership(PgId pg) const;
  /// If `node` hosts a replica of `pg`, returns true and sets `*page_size`
  /// to the volume's page size (the lazy-materialization handshake).
  bool MemberPageSize(PgId pg, sim::NodeId node, size_t* page_size) const;

  /// Swaps a failed replica for `replacement` (repair / heat management);
  /// bumps the PG's config epoch.
  void ReplaceReplica(PgId pg, ReplicaIdx idx, sim::NodeId replacement);

  /// One entry of the durable membership-change log: the full configuration
  /// of `pg` at `config_epoch`. Invariant 7 (quorum intersection across
  /// config epochs) audits this history.
  struct ConfigRecord {
    PgId pg;
    uint64_t config_epoch;
    std::array<sim::NodeId, kReplicasPerPg> nodes;
  };
  /// Every configuration every PG has ever had, in the order they were
  /// installed (CreatePg appends epoch 0, ReplaceReplica each bump).
  std::vector<ConfigRecord> ConfigHistory() const { return config_history_; }

  /// All PGs that have `node` as a member (repair scans).
  std::vector<std::pair<PgId, ReplicaIdx>> ReplicasOnNode(
      sim::NodeId node) const;

  const sim::Topology* topology() const { return topology_; }

  /// Page synthesizer for snapshot-restored volumes, installed on every
  /// current and future segment replica (see Segment::set_page_synthesizer).
  void SetPageSynthesizer(std::function<bool(PageId, class Page*)> fn);
  const std::function<bool(PageId, class Page*)>& page_synthesizer() const {
    return synthesizer_;
  }

  // --- Durable volume metadata (recovery, §4.3) ----------------------------
  /// Current volume epoch; recovery bumps it before truncating.
  Epoch volume_epoch() const { return volume_epoch_; }
  void set_volume_epoch(Epoch e) {
    if (e > volume_epoch_) volume_epoch_ = e;
  }

  struct TruncationRange {
    Epoch epoch;
    Lsn above;  // every record with LSN > above is annulled
  };
  /// Durably records a truncation so that storage nodes rejoining after an
  /// outage (which may still hold annulled records) can re-apply it.
  void RecordTruncation(Epoch epoch, Lsn above) {
    truncations_.push_back({epoch, above});
  }
  const std::vector<TruncationRange>& truncations() const {
    return truncations_;
  }

 private:
  const sim::Topology* topology_;
  Random rng_;
  std::map<sim::NodeId, StorageNode*> nodes_;
  std::map<PgId, PgMembership> memberships_;
  std::vector<ConfigRecord> config_history_;
  PgId next_pg_ = 0;
  std::function<bool(PageId, class Page*)> synthesizer_;
  Epoch volume_epoch_ = 1;
  std::vector<TruncationRange> truncations_;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_CONTROL_PLANE_H_
