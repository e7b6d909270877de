#include "storage/control_plane.h"

#include <algorithm>
#include <vector>

#include "storage/storage_node.h"

namespace aurora {

PgId CreatePgImplPick(const sim::Topology* topology,
                      const std::map<sim::NodeId, StorageNode*>& nodes,
                      Random* rng, std::array<sim::NodeId, 6>* out) {
  // Pick two distinct hosts per AZ, uniformly at random among registered
  // storage hosts in that AZ ("high entropy" placement, §3.3).
  int filled = 0;
  for (sim::AzId az = 0; az < 3; ++az) {
    std::vector<sim::NodeId> in_az;
    for (const auto& [id, node] : nodes) {
      if (topology->az_of(id) == az) in_az.push_back(id);
    }
    AURORA_CHECK(in_az.size() >= 2,
                 "need at least two storage hosts per AZ to place a PG");
    uint64_t a = rng->Uniform(in_az.size());
    uint64_t b = rng->Uniform(in_az.size() - 1);
    if (b >= a) ++b;
    (*out)[filled++] = in_az[a];
    (*out)[filled++] = in_az[b];
  }
  return 0;
}

PgId ControlPlane::CreatePg(size_t page_size) {
  PgMembership members;
  CreatePgImplPick(topology_, nodes_, &rng_, &members.nodes);
  members.page_size = page_size;
  PgId pg = next_pg_++;
  memberships_[pg] = members;
  config_history_.push_back({pg, members.config_epoch, members.nodes});
  // No segments are instantiated here: each member host materializes its
  // replica lazily on first contact (StorageNode::EnsureSegment).
  return pg;
}

const PgMembership& ControlPlane::membership(PgId pg) const {
  auto it = memberships_.find(pg);
  AURORA_CHECK(it != memberships_.end(), "unknown PG");
  return it->second;
}

bool ControlPlane::MemberPageSize(PgId pg, sim::NodeId node,
                                  size_t* page_size) const {
  auto it = memberships_.find(pg);
  if (it == memberships_.end() || it->second.IndexOf(node) < 0) return false;
  *page_size = it->second.page_size;
  return true;
}

void ControlPlane::ReplaceReplica(PgId pg, ReplicaIdx idx,
                                  sim::NodeId replacement) {
  auto it = memberships_.find(pg);
  AURORA_CHECK(it != memberships_.end(), "unknown PG in ReplaceReplica");
  it->second.nodes[idx] = replacement;
  ++it->second.config_epoch;
  config_history_.push_back({pg, it->second.config_epoch, it->second.nodes});
}

void ControlPlane::SetPageSynthesizer(
    std::function<bool(PageId, Page*)> fn) {
  synthesizer_ = std::move(fn);
  for (auto& [id, node] : nodes_) {
    node->InstallSynthesizerOnSegments(synthesizer_);
  }
}

std::vector<std::pair<PgId, ReplicaIdx>> ControlPlane::ReplicasOnNode(
    sim::NodeId node) const {
  std::vector<std::pair<PgId, ReplicaIdx>> out;
  for (const auto& [pg, members] : memberships_) {
    int idx = members.IndexOf(node);
    if (idx >= 0) out.emplace_back(pg, static_cast<ReplicaIdx>(idx));
  }
  return out;
}

}  // namespace aurora
