#include "storage/storage_node.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/logging.h"

namespace aurora {

StorageNode::StorageNode(sim::EventLoop* loop, sim::Network* network,
                         sim::NodeId id, ControlPlane* control_plane,
                         SimS3* s3, StorageNodeOptions options, Random rng)
    : loop_(loop),
      network_(network),
      id_(id),
      control_plane_(control_plane),
      s3_(s3),
      options_(options),
      rng_(rng),
      disk_(loop, options.disk, rng.Fork()) {
  network_->Register(id_, [this](const sim::Message& m) { HandleMessage(m); });
  ScheduleBackgroundTasks();
}

void StorageNode::CreateSegment(PgId pg, size_t page_size) {
  auto seg = std::make_unique<Segment>(pg, page_size);
  seg->set_page_cache_budget(options_.page_cache_budget_bytes);
  if (control_plane_->page_synthesizer()) {
    seg->set_page_synthesizer(control_plane_->page_synthesizer());
  }
  segments_[pg] = std::move(seg);
}

void StorageNode::InstallSynthesizerOnSegments(
    const Segment::PageSynthesizer& fn) {
  for (auto& [pg, seg] : segments_) {
    seg->set_page_synthesizer(fn);
  }
}

Segment* StorageNode::EnsureSegment(PgId pg) {
  auto it = segments_.find(pg);
  if (it != segments_.end()) return it->second.get();
  size_t page_size = 0;
  if (!control_plane_->MemberPageSize(pg, id_, &page_size)) return nullptr;
  CreateSegment(pg, page_size);
  return segments_.at(pg).get();
}

void StorageNode::DropSegment(PgId pg) { segments_.erase(pg); }

Segment* StorageNode::segment(PgId pg) {
  auto it = segments_.find(pg);
  return it == segments_.end() ? nullptr : it->second.get();
}

const Segment* StorageNode::segment(PgId pg) const {
  auto it = segments_.find(pg);
  return it == segments_.end() ? nullptr : it->second.get();
}

void StorageNode::Crash() {
  crashed_ = true;
  ++generation_;
  applied_batches_.clear();
  // Chunked-repair state is volatile on both sides: a target's reassembly
  // buffer is only durable once the final persist installs the segment, and
  // a donor's snapshot cache is rebuilt on the next request.
  repair_sessions_.clear();
  donor_snapshots_.clear();
  donor_snapshot_order_.clear();
  // Cancel the background timers outright (same pattern as
  // Database::Crash()): the generation guard already neutralizes them, but
  // leaving them queued grows the event loop's pending set on every
  // crash/restart cycle.
  loop_->Cancel(gossip_timer_);
  loop_->Cancel(coalesce_timer_);
  loop_->Cancel(gc_timer_);
  loop_->Cancel(scrub_timer_);
  loop_->Cancel(backup_timer_);
  for (const auto& [n, id] : deferred_) loop_->Cancel(id);
  deferred_.clear();
}

void StorageNode::Restart() {
  crashed_ = false;
  ++generation_;
  // A node that slept through a recovery may hold annulled log records;
  // re-apply any truncation ranges recorded while it was down (§4.3: the
  // ranges are epoch-versioned and durable precisely for this).
  for (const auto& tr : control_plane_->truncations()) {
    for (auto& [pg, seg] : segments_) {
      if (tr.epoch > seg->epoch()) {
        seg->Truncate(tr.above, tr.epoch);
      }
    }
  }
  ScheduleBackgroundTasks();
}

uint64_t StorageNode::SegmentBytes(PgId pg) const {
  const Segment* seg = segment(pg);
  return seg ? seg->ApproximateBytes() : 0;
}

PageCacheStats StorageNode::PageCacheTotals() const {
  PageCacheStats total;
  for (const auto& [pg, seg] : segments_) {
    const PageCacheStats& s = seg->page_cache_stats();
    total.hits += s.hits;
    total.partial_hits += s.partial_hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

uint64_t StorageNode::PageCacheBytes() const {
  uint64_t bytes = 0;
  for (const auto& [pg, seg] : segments_) bytes += seg->page_cache_bytes();
  return bytes;
}

bool StorageNode::Busy() const {
  return disk_.backlog() > options_.background_backlog_limit;
}

void StorageNode::ScheduleBackgroundTasks() {
  const uint64_t gen = generation_;
  // Stagger the first firing of each task so a fleet of nodes doesn't beat
  // in lockstep.
  auto stagger = [this](SimDuration d) { return rng_.Uniform(d) + 1; };
  gossip_timer_ = loop_->Schedule(stagger(options_.gossip_interval),
                                  [this, gen] {
                                    if (gen == generation_ && !crashed_)
                                      GossipTick();
                                  });
  coalesce_timer_ = loop_->Schedule(stagger(options_.coalesce_interval),
                                    [this, gen] {
                                      if (gen == generation_ && !crashed_)
                                        CoalesceTick();
                                    });
  gc_timer_ = loop_->Schedule(stagger(options_.gc_interval), [this, gen] {
    if (gen == generation_ && !crashed_) GcTick();
  });
  scrub_timer_ = loop_->Schedule(stagger(options_.scrub_interval),
                                 [this, gen] {
                                   if (gen == generation_ && !crashed_)
                                     ScrubTick();
                                 });
  backup_timer_ = loop_->Schedule(stagger(options_.backup_interval),
                                  [this, gen] {
                                    if (gen == generation_ && !crashed_)
                                      BackupTick();
                                  });
}

void StorageNode::HandleMessage(const sim::Message& msg) {
  if (crashed_) return;
  if (!network_->VerifyFrame(msg)) {
    ++stats_.corrupt_frames_dropped;
    return;
  }
  switch (msg.type) {
    case kMsgWriteBatch:
      HandleWriteBatch(msg);
      break;
    case kMsgReadPageReq:
      HandleReadPage(msg);
      break;
    case kMsgInventoryReq:
      HandleInventory(msg);
      break;
    case kMsgTruncateReq:
      HandleTruncate(msg);
      break;
    case kMsgPgmrplUpdate:
      HandlePgmrpl(msg);
      break;
    case kMsgGossipPull:
      HandleGossipPull(msg);
      break;
    case kMsgGossipPush:
      HandleGossipPush(msg);
      break;
    case kMsgSegmentStateReq:
      HandleSegmentStateReq(msg);
      break;
    case kMsgSegmentStateResp:
      HandleSegmentStateResp(msg);
      break;
    case kMsgSegmentChunkReq:
      HandleSegmentChunkReq(msg);
      break;
    case kMsgSegmentChunkResp:
      HandleSegmentChunkResp(msg);
      break;
    default:
      AURORA_WARN("storage node %u: unexpected message type %u", id_,
                  msg.type);
  }
}

void StorageNode::HandleWriteBatch(const sim::Message& msg) {
  WriteBatchMsg batch;
  // Decode the header and shared-body fragments in place: the fan-out body
  // is shared by all six in-flight copies and is never concatenated.
  if (!WriteBatchMsg::DecodeFrom(msg.head(), msg.body_view(), &batch).ok()) {
    return;
  }
  Segment* seg = EnsureSegment(batch.pg);
  if (seg == nullptr) return;  // not a member (anymore)
  ++stats_.batches_received;
  const PgMembership& members = control_plane_->membership(batch.pg);

  // Membership fence: a batch stamped with an older config epoch comes from
  // a sender that missed a ReplaceReplica — and this host may be the very
  // replica that was evicted. Either way the sender must not count this ack
  // toward quorum; NAK with the current config epoch so it refreshes.
  if (members.IndexOf(id_) < 0 || batch.cfg_epoch < members.config_epoch) {
    ++stats_.stale_config_rejects;
    WriteAckMsg nak;
    nak.pg = batch.pg;
    nak.replica = batch.replica;
    nak.batch_seq = batch.batch_seq;
    nak.scl = seg->scl();
    nak.status_code = static_cast<uint8_t>(Status::Code::kStaleConfig);
    nak.epoch = seg->epoch();
    nak.cfg_epoch = members.config_epoch;
    std::string payload;
    nak.EncodeTo(&payload);
    network_->Send(id_, msg.from, kMsgWriteAck, std::move(payload));
    return;
  }

  // Epoch fence: a batch stamped with an older volume epoch comes from a
  // writer that was superseded by a failover. Reject without applying and
  // tell the sender which epoch fenced it so it can demote itself.
  if (batch.epoch < seg->epoch()) {
    ++stats_.stale_epoch_rejects;
    WriteAckMsg nak;
    nak.pg = batch.pg;
    nak.replica = batch.replica;
    nak.batch_seq = batch.batch_seq;
    nak.scl = seg->scl();
    nak.status_code = static_cast<uint8_t>(Status::Code::kFenced);
    nak.epoch = seg->epoch();
    nak.cfg_epoch = members.config_epoch;
    std::string payload;
    nak.EncodeTo(&payload);
    network_->Send(id_, msg.from, kMsgWriteAck, std::move(payload));
    return;
  }

  // Idempotent delivery: a batch the segment has already fully applied under
  // this epoch (network duplicate, or a sender retry that crossed the ack in
  // flight) is re-acked immediately without another persist or apply.
  auto& seen = applied_batches_[batch.pg];
  auto dup = seen.find(batch.batch_seq);
  if (dup != seen.end() && dup->second == batch.epoch) {
    ++stats_.duplicate_batches;
    WriteAckMsg ack;
    ack.pg = batch.pg;
    ack.replica = batch.replica;
    ack.batch_seq = batch.batch_seq;
    ack.scl = seg->scl();
    ack.epoch = seg->epoch();
    ack.cfg_epoch = members.config_epoch;
    std::string payload;
    ack.EncodeTo(&payload);
    network_->Send(id_, msg.from, kMsgWriteAck, std::move(payload));
    ++stats_.acks_sent;
    return;
  }

  stats_.records_received += batch.records.size();

  // Figure 4 steps 1-2: queue, persist on disk, then acknowledge. The disk
  // write covers the batch bytes; segment bookkeeping happens at completion
  // (a crash before completion loses the batch, which is exactly the
  // durability contract — unacked writes may vanish).
  const uint64_t gen = generation_;
  const uint64_t bytes = msg.payload_size();
  disk_.Write(bytes, [this, gen, batch = std::move(batch),
                      from = msg.from](Status s) mutable {
    if (gen != generation_ || crashed_) return;
    if (!s.ok()) {
      // A torn write means the batch never became durable; dropping the ack
      // makes the sender retry, exactly as for a lost frame.
      if (s.IsCorruption()) ++stats_.torn_write_drops;
      return;
    }
    Segment* seg = segment(batch.pg);
    if (seg == nullptr) return;
    seg->ObserveEpoch(batch.epoch);
    seg->SetVdlHint(batch.vdl_hint);
    seg->SetPgmrpl(batch.pgmrpl_hint);
    for (LogRecord& r : batch.records) seg->AddRecord(std::move(r));
    // The device may have planted a latent sector fault under this write;
    // rot a materialized base page in response (the scrubber or a CRC-
    // verified read will catch it later). The RNG draw is gated on the
    // fault actually firing, so fault-free runs stay byte-identical.
    if (seg->num_pages() > 0 && disk_.ConsumeLatentFault()) {
      ++stats_.latent_corruptions;
      seg->CorruptNthBasePage(rng_.Uniform(seg->num_pages()));
    }
    // Mark the batch applied only now that it is persisted and integrated;
    // bound the per-PG memory by pruning the oldest seqs.
    auto& applied = applied_batches_[batch.pg];
    applied[batch.batch_seq] = batch.epoch;
    while (applied.size() > 4096) applied.erase(applied.begin());
    WriteAckMsg ack;
    ack.pg = batch.pg;
    ack.replica = batch.replica;
    ack.batch_seq = batch.batch_seq;
    ack.scl = seg->scl();
    ack.epoch = seg->epoch();
    ack.cfg_epoch = control_plane_->membership(batch.pg).config_epoch;
    std::string payload;
    ack.EncodeTo(&payload);
    network_->Send(id_, from, kMsgWriteAck, std::move(payload));
    ++stats_.acks_sent;
  });
}

void StorageNode::HandleReadPage(const sim::Message& msg) {
  ReadPageReqMsg req;
  if (!ReadPageReqMsg::DecodeFrom(msg.payload(), &req).ok()) return;
  const uint64_t gen = generation_;
  // One device read to serve a page miss.
  Segment* seg = EnsureSegment(req.pg);
  size_t read_bytes = seg ? seg->page_size() : 4096;
  disk_.Read(read_bytes, [this, gen, req, from = msg.from](Status ds) {
    if (gen != generation_ || crashed_) return;
    ReadPageRespMsg resp;
    resp.req_id = req.req_id;
    // The response views the served image until it is encoded below.
    Result<Page> page = Status::NotFound();
    Segment* seg = segment(req.pg);
    if (!ds.ok()) {
      resp.status_code = static_cast<uint8_t>(Status::Code::kIOError);
    } else if (seg == nullptr) {
      resp.status_code = static_cast<uint8_t>(Status::Code::kNotFound);
      ++stats_.page_read_errors;
    } else if (req.epoch != 0 && req.epoch < seg->epoch()) {
      // Epoch fence on the read path: a zombie writer must not serve reads
      // off quorum state that a promotion has superseded.
      resp.status_code = static_cast<uint8_t>(Status::Code::kFenced);
      ++stats_.stale_epoch_rejects;
      ++stats_.page_read_errors;
    } else if (req.cfg_epoch != 0 &&
               req.cfg_epoch <
                   control_plane_->membership(req.pg).config_epoch) {
      // Membership fence: the reader routed here off a membership it missed
      // an update to — this host may already be evicted. NAK so it
      // refreshes instead of trusting a possibly-stale replica.
      resp.status_code = static_cast<uint8_t>(Status::Code::kStaleConfig);
      ++stats_.stale_config_rejects;
      ++stats_.page_read_errors;
    } else {
      page = seg->GetPageAsOf(req.page, req.read_point);
      if (page.ok()) {
        resp.status_code = static_cast<uint8_t>(Status::Code::kOk);
        resp.page_lsn = page->page_lsn();
        resp.page_bytes = Slice(page->raw());
        ++stats_.page_reads_served;
      } else {
        resp.status_code = static_cast<uint8_t>(page.status().code());
        ++stats_.page_read_errors;
        if (page.status().IsCorruption()) {
          // A latent fault surfaced on the read path before the scrubber
          // got there: heal from a peer immediately (read-repair).
          ++stats_.read_repairs;
          seg->DropPageForRepair(req.page);
          SchedulePeerPageRepair(req.pg, req.page);
        }
      }
    }
    std::string payload;
    resp.EncodeTo(&payload);
    network_->Send(id_, from, kMsgReadPageResp, std::move(payload));
  });
}

void StorageNode::HandleInventory(const sim::Message& msg) {
  InventoryReqMsg req;
  if (!InventoryReqMsg::DecodeFrom(msg.payload(), &req).ok()) return;
  Segment* seg = EnsureSegment(req.pg);
  if (seg == nullptr) return;
  InventoryRespMsg resp;
  resp.req_id = req.req_id;
  resp.pg = req.pg;
  resp.replica = static_cast<ReplicaIdx>(
      std::max(0, control_plane_->membership(req.pg).IndexOf(id_)));
  resp.epoch = seg->epoch();
  resp.scl = seg->scl();
  resp.vdl_hint = seg->vdl_hint();
  resp.entries = seg->Inventory();
  std::string payload;
  resp.EncodeTo(&payload);
  network_->Send(id_, msg.from, kMsgInventoryResp, std::move(payload));
}

void StorageNode::HandleTruncate(const sim::Message& msg) {
  TruncateReqMsg req;
  if (!TruncateReqMsg::DecodeFrom(msg.payload(), &req).ok()) return;
  Segment* seg = EnsureSegment(req.pg);
  if (seg == nullptr) return;
  Status s = seg->Truncate(req.truncate_above, req.epoch);
  if (s.IsStale()) ++stats_.stale_epoch_rejects;
  // Persist the truncation metadata, then ack.
  const uint64_t gen = generation_;
  disk_.Write(64, [this, gen, req, s, from = msg.from](Status ds) {
    if (gen != generation_ || crashed_) return;
    TruncateAckMsg ack;
    ack.req_id = req.req_id;
    ack.pg = req.pg;
    ack.replica = static_cast<ReplicaIdx>(
        std::max(0, control_plane_->membership(req.pg).IndexOf(id_)));
    ack.status_code = static_cast<uint8_t>(
        !ds.ok() ? Status::Code::kIOError : s.code());
    std::string payload;
    ack.EncodeTo(&payload);
    network_->Send(id_, from, kMsgTruncateAck, std::move(payload));
  });
}

void StorageNode::HandlePgmrpl(const sim::Message& msg) {
  PgmrplMsg m;
  if (!PgmrplMsg::DecodeFrom(msg.payload(), &m).ok()) return;
  Segment* seg = EnsureSegment(m.pg);
  if (seg == nullptr) return;
  seg->SetPgmrpl(m.pgmrpl);
  if (m.has_snapshot) {
    seg->SetVdlHint(m.vdl_snapshot);
    seg->SetCompletenessSnapshot(m.vdl_snapshot, m.pg_tail);
  }
}

void StorageNode::GossipTick() {
  const uint64_t gen = generation_;
  gossip_timer_ = loop_->Schedule(options_.gossip_interval, [this, gen] {
    if (gen == generation_ && !crashed_) GossipTick();
  });
  if (Busy()) {
    ++stats_.background_deferrals;
    return;
  }
  // For each hosted segment, ask one random peer what we're missing
  // (Figure 4 step 4). Pull-based: we advertise our SCL; the peer pushes
  // anything above it.
  std::vector<PgId> evicted;
  for (auto& [pg, seg] : segments_) {
    const PgMembership& members = control_plane_->membership(pg);
    int self = members.IndexOf(id_);
    if (self < 0) {
      // This host was replaced out of the PG (repair or heat management);
      // the replica is dead weight and stray frames must not resurrect it.
      evicted.push_back(pg);
      continue;
    }
    // Gossip is only useful when a gap is open or we might be behind; a
    // cheap randomized probe handles the "don't know what we don't know"
    // case.
    int peer_idx = static_cast<int>(rng_.Uniform(kReplicasPerPg - 1));
    if (peer_idx >= self) ++peer_idx;
    GossipPullMsg pull;
    pull.pg = pg;
    pull.replica = static_cast<ReplicaIdx>(self);
    pull.epoch = seg->epoch();
    pull.cfg_epoch = members.config_epoch;
    pull.scl = seg->scl();
    pull.max_lsn = seg->max_lsn();
    std::string payload;
    pull.EncodeTo(&payload);
    network_->Send(id_, members.nodes[peer_idx], kMsgGossipPull,
                   std::move(payload));
    ++stats_.gossip_rounds;
  }
  for (PgId pg : evicted) {
    segments_.erase(pg);
    applied_batches_.erase(pg);
    ++stats_.evicted_segments_dropped;
  }
}

void StorageNode::HandleGossipPull(const sim::Message& msg) {
  GossipPullMsg pull;
  if (!GossipPullMsg::DecodeFrom(msg.payload(), &pull).ok()) return;
  Segment* seg = EnsureSegment(pull.pg);
  if (seg == nullptr) return;
  // Membership fence: a pull from an evicted host (or one stamped before a
  // ReplaceReplica this node already knows about) must not be answered —
  // feeding records to a dead replica resurrects it.
  const PgMembership& members = control_plane_->membership(pull.pg);
  if (members.IndexOf(msg.from) < 0 ||
      pull.cfg_epoch < members.config_epoch) {
    ++stats_.stale_config_rejects;
    return;
  }
  // A puller on a newer epoch fences this segment forward (it clearly
  // survived a promotion this replica slept through).
  seg->ObserveEpoch(pull.epoch);
  if (seg->max_lsn() <= pull.scl) return;  // nothing to offer
  if (seg->scl() > pull.scl && !seg->CanBridgeFrom(pull.scl)) {
    // GC already collected the successor of the puller's contiguous prefix:
    // log shipping can never close its gap, no matter how many rounds run.
    // Fall back to the full state copy repair uses (the installer refuses
    // copies that would lose records, so a stale copy is just ignored).
    ++stats_.gossip_state_transfers;
    SegmentStateRespMsg resp;
    resp.req_id = 0;
    resp.pg = pull.pg;
    seg->SerializeTo(&resp.state);
    const uint64_t gen = generation_;
    disk_.Read(resp.state.size(), [this, gen, resp = std::move(resp),
                                   from = msg.from](Status s) mutable {
      if (gen != generation_ || crashed_ || !s.ok()) return;
      std::string payload;
      resp.EncodeTo(&payload);
      network_->Send(id_, from, kMsgSegmentStateResp, std::move(payload));
    });
    return;
  }
  std::vector<const LogRecord*> records =
      seg->RecordsAbove(pull.scl, options_.gossip_max_records);
  if (records.empty()) return;
  stats_.gossip_records_sent += records.size();
  std::string payload;
  GossipPushMsg::EncodeRecordsTo(pull.pg, seg->epoch(),
                                 members.config_epoch, records, &payload);
  network_->Send(id_, msg.from, kMsgGossipPush, std::move(payload));
}

void StorageNode::HandleGossipPush(const sim::Message& msg) {
  GossipPushMsg push;
  if (!GossipPushMsg::DecodeFrom(msg.payload(), &push).ok()) return;
  Segment* seg = EnsureSegment(push.pg);
  if (seg == nullptr) return;
  // Membership fence: a push from an evicted donor (or from before a
  // ReplaceReplica) may carry state the current membership has moved past.
  const PgMembership& members = control_plane_->membership(push.pg);
  if (members.IndexOf(msg.from) < 0 ||
      push.cfg_epoch < members.config_epoch) {
    ++stats_.stale_config_rejects;
    return;
  }
  // Epoch gate: a push from a segment on an older epoch may carry records a
  // recovery truncation annulled (truncation needs only a 4/6 quorum, so a
  // partitioned peer can survive with them). Dropping the push wholesale
  // keeps annulled records from resurrecting here.
  if (push.epoch < seg->epoch()) {
    ++stats_.stale_epoch_rejects;
    return;
  }
  // Persist backfilled records before integrating them, same as writer
  // batches.
  const uint64_t gen = generation_;
  const uint64_t bytes = msg.payload_size();
  disk_.Write(bytes, [this, gen, push = std::move(push)](Status s) mutable {
    if (gen != generation_ || crashed_ || !s.ok()) return;
    Segment* seg = segment(push.pg);
    if (seg == nullptr) return;
    seg->ObserveEpoch(push.epoch);
    uint64_t filled = 0;
    for (LogRecord& r : push.records) {
      if (seg->AddRecord(std::move(r))) ++filled;
    }
    stats_.gossip_records_filled += filled;
    if (filled > 0) stats_.gossip_fill_batch.Record(filled);
  });
}

void StorageNode::CoalesceTick() {
  const uint64_t gen = generation_;
  coalesce_timer_ = loop_->Schedule(options_.coalesce_interval, [this, gen] {
    if (gen == generation_ && !crashed_) CoalesceTick();
  });
  if (Busy()) {
    ++stats_.background_deferrals;
    return;
  }
  size_t budget = options_.coalesce_batch;
  for (auto& [pg, seg] : segments_) {
    if (budget == 0) break;
    size_t applied = seg->CoalesceStep(budget);
    budget -= applied;
    stats_.records_coalesced += applied;
    if (applied > 0) {
      // Model the page writes of materialization as one aggregated disk
      // write (log-structured, sequential).
      disk_.Write(applied * 64 + seg->page_size(), [](Status) {});
    }
  }
}

void StorageNode::GcTick() {
  const uint64_t gen = generation_;
  gc_timer_ = loop_->Schedule(options_.gc_interval, [this, gen] {
    if (gen == generation_ && !crashed_) GcTick();
  });
  if (Busy()) {
    ++stats_.background_deferrals;
    return;
  }
  for (auto& [pg, seg] : segments_) {
    stats_.records_gced += seg->GarbageCollect();
  }
}

void StorageNode::ScrubTick() {
  const uint64_t gen = generation_;
  scrub_timer_ = loop_->Schedule(options_.scrub_interval, [this, gen] {
    if (gen == generation_ && !crashed_) ScrubTick();
  });
  if (Busy()) {
    ++stats_.background_deferrals;
    return;
  }
  for (auto& [pg, seg] : segments_) {
    ++stats_.scrub_rounds;
    stats_.pages_scrubbed += seg->num_pages();
    size_t corrupt = seg->ScrubPages();
    if (corrupt == 0) continue;
    stats_.corrupt_pages_found += corrupt;
    // Self-heal: drop the bad base image; it re-materializes from the log,
    // and if the log is gone, fetch the page from a healthy peer.
    std::vector<PageId> bad(seg->corrupt_pages().begin(),
                            seg->corrupt_pages().end());
    for (PageId page : bad) {
      seg->DropPageForRepair(page);
      SchedulePeerPageRepair(pg, page);
    }
  }
}

void StorageNode::SchedulePeerPageRepair(PgId pg, PageId page) {
  // Fetch a healthy copy from any live peer (control-plane mediated;
  // whole-segment repair uses the chunked SegmentChunkReq data path
  // instead). The fetch runs as its own event; until then the dropped page
  // re-materializes from the log on demand.
  const uint64_t gen = generation_;
  Defer([this, gen, pg, page] {
    if (gen != generation_ || crashed_) return;
    Segment* seg = segment(pg);
    if (seg == nullptr) return;
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId peer : members.nodes) {
      if (peer == id_) continue;
      StorageNode* peer_node = control_plane_->node(peer);
      if (peer_node == nullptr || peer_node->crashed()) continue;
      const Segment* peer_seg = peer_node->segment(pg);
      if (peer_seg == nullptr) continue;
      Result<Page> healthy =
          peer_seg->GetPageAsOf(page, peer_seg->applied_lsn());
      if (healthy.ok()) {
        seg->RestoreBasePage(page, std::move(*healthy));
        ++stats_.corrupt_pages_repaired;
        break;
      }
    }
  });
}

void StorageNode::BackupTick() {
  const uint64_t gen = generation_;
  backup_timer_ = loop_->Schedule(options_.backup_interval, [this, gen] {
    if (gen == generation_ && !crashed_) BackupTick();
  });
  if (Busy() || s3_ == nullptr) {
    if (Busy()) ++stats_.background_deferrals;
    return;
  }
  // Figure 4 step 6: continuously stage complete log to S3. The lowest-
  // index *live* replica of each PG is the designated uploader (control-
  // plane mediated) — a single uploader avoids 6x duplicate archives, and
  // falling back past crashed replicas keeps backups flowing while the
  // preferred uploader is down.
  for (auto& [pg, seg] : segments_) {
    const PgMembership& members = control_plane_->membership(pg);
    sim::NodeId uploader = sim::kInvalidNode;
    for (sim::NodeId candidate : members.nodes) {
      StorageNode* node = control_plane_->node(candidate);
      if (node != nullptr && !node->crashed()) {
        uploader = candidate;
        break;
      }
    }
    if (uploader != id_) continue;
    std::vector<const LogRecord*> records =
        seg->UnbackedRecords(options_.backup_max_records);
    if (records.empty()) continue;
    std::string blob;
    EncodeRecordBatch(records, &blob);
    Lsn through = records.back()->lsn;
    char key[64];
    snprintf(key, sizeof(key), "backup/pg%06u/%020llu",
             static_cast<unsigned>(pg),
             static_cast<unsigned long long>(through));
    s3_->Put(key, std::move(blob), [](Status) {});
    seg->MarkBackedUp(through);
    ++stats_.backup_objects;
  }
}

void StorageNode::HandleSegmentStateReq(const sim::Message& msg) {
  SegmentStateReqMsg req;
  if (!SegmentStateReqMsg::DecodeFrom(msg.payload(), &req).ok()) return;
  Segment* seg = segment(req.pg);
  if (seg == nullptr) return;
  SegmentStateRespMsg resp;
  resp.req_id = req.req_id;
  resp.pg = req.pg;
  seg->SerializeTo(&resp.state);
  const uint64_t gen = generation_;
  // Reading the whole segment off disk to serve the copy.
  disk_.Read(resp.state.size(), [this, gen, resp = std::move(resp),
                                 from = msg.from](Status s) mutable {
    if (gen != generation_ || crashed_ || !s.ok()) return;
    std::string payload;
    resp.EncodeTo(&payload);
    network_->Send(id_, from, kMsgSegmentStateResp, std::move(payload));
  });
}

void StorageNode::HandleSegmentStateResp(const sim::Message& msg) {
  SegmentStateRespMsg resp;
  if (!SegmentStateRespMsg::DecodeFrom(msg.payload(), &resp).ok()) return;
  // Persist the received copy, then install it. This path now serves only
  // gossip's state-transfer backstop; repair uses the chunked transfer.
  const uint64_t gen = generation_;
  disk_.Write(resp.state.size(), [this, gen,
                                  resp = std::move(resp)](Status s) {
    if (gen != generation_ || crashed_ || !s.ok()) return;
    InstallSegmentCopy(resp.pg, resp.state);
  });
}

bool StorageNode::InstallSegmentCopy(PgId pg, Slice state) {
  auto seg = std::make_unique<Segment>(pg, Page::kMinPageSize);
  if (!seg->DeserializeFrom(state).ok()) return false;
  // Replacing local state is only safe when the copy is a superset of
  // everything this replica ever held (and thus ever acknowledged): its
  // complete prefix must cover our whole log, and its epoch must not
  // regress the fence. Repair installs onto empty replacements trivially
  // pass; a stale gossip state transfer is dropped and retried.
  auto existing = segments_.find(pg);
  if (existing != segments_.end() &&
      (seg->scl() < existing->second->max_lsn() ||
       seg->epoch() < existing->second->epoch())) {
    return false;
  }
  seg->set_page_cache_budget(options_.page_cache_budget_bytes);
  if (control_plane_->page_synthesizer()) {
    seg->set_page_synthesizer(control_plane_->page_synthesizer());
  }
  segments_[pg] = std::move(seg);
  return true;
}

void StorageNode::BeginRepairSession(PgId pg, uint64_t req_id) {
  ++stats_.repair_sessions_started;
  repair_sessions_[{pg, req_id}] = RepairSession{};
}

void StorageNode::AbortRepairSession(PgId pg, uint64_t req_id) {
  repair_sessions_.erase({pg, req_id});
}

void StorageNode::NotifyRepairProgress(PgId pg, RepairProgress progress) {
  if (!repair_progress_cb_) return;
  // The callback belongs to the repair manager; run it as its own event so
  // the manager never re-enters this node's message handler.
  const uint64_t gen = generation_;
  Defer([this, gen, pg, progress] {
    if (gen != generation_ || crashed_) return;
    if (repair_progress_cb_) repair_progress_cb_(pg, progress);
  });
}

void StorageNode::Defer(sim::EventFn fn) {
  const uint64_t n = next_deferred_++;
  deferred_[n] = loop_->Schedule(0, [this, n, fn = std::move(fn)]() mutable {
    deferred_.erase(n);
    fn();
  });
}

void StorageNode::HandleSegmentChunkReq(const sim::Message& msg) {
  SegmentChunkReqMsg req;
  if (!SegmentChunkReqMsg::DecodeFrom(msg.payload(), &req).ok()) return;
  if (req.chunk_bytes == 0) return;
  Segment* seg = segment(req.pg);
  // No segment to donate (evicted, or this host never had one): stay
  // silent; the manager's chunk timeout triggers donor failover.
  if (seg == nullptr) return;
  const auto key = std::make_pair(req.pg, req.req_id);
  auto it = donor_snapshots_.find(key);
  if (it == donor_snapshots_.end()) {
    // First request of this transfer: freeze one consistent snapshot so
    // every chunk of (pg, req_id) comes from the same serialized state,
    // no matter how the live segment advances underneath.
    DonorSnapshot snap;
    seg->SerializeTo(&snap.blob);
    snap.blob_crc =
        crc32c::Mask(crc32c::Value(snap.blob.data(), snap.blob.size()));
    while (donor_snapshot_order_.size() >= 4) {
      donor_snapshots_.erase(donor_snapshot_order_.front());
      donor_snapshot_order_.erase(donor_snapshot_order_.begin());
    }
    it = donor_snapshots_.emplace(key, std::move(snap)).first;
    donor_snapshot_order_.push_back(key);
  }
  const DonorSnapshot& snap = it->second;
  SegmentChunkRespMsg resp;
  resp.req_id = req.req_id;
  resp.pg = req.pg;
  resp.chunk_index = req.chunk_index;
  resp.total_bytes = snap.blob.size();
  resp.total_chunks = static_cast<uint32_t>(
      (snap.blob.size() + req.chunk_bytes - 1) / req.chunk_bytes);
  resp.blob_crc = snap.blob_crc;
  if (req.chunk_index < resp.total_chunks) {
    const uint64_t off = static_cast<uint64_t>(req.chunk_index) *
                         req.chunk_bytes;
    resp.data = snap.blob.substr(
        off, std::min<uint64_t>(req.chunk_bytes, snap.blob.size() - off));
  }
  // An out-of-range chunk_index means the requester's geometry came from a
  // different snapshot (this donor crashed and rebuilt, or took over from
  // another). Respond with empty data and the *current* geometry; the
  // receiver detects the blob_crc mismatch and restarts at chunk 0.
  resp.chunk_crc =
      crc32c::Mask(crc32c::Value(resp.data.data(), resp.data.size()));
  const uint64_t gen = generation_;
  // One device read to page the slice off disk.
  disk_.Read(resp.data.size() + 64, [this, gen, resp = std::move(resp),
                                     from = msg.from](Status s) mutable {
    if (gen != generation_ || crashed_ || !s.ok()) return;
    std::string payload;
    resp.EncodeTo(&payload);
    network_->Send(id_, from, kMsgSegmentChunkResp, std::move(payload));
  });
}

void StorageNode::HandleSegmentChunkResp(const sim::Message& msg) {
  SegmentChunkRespMsg resp;
  if (!SegmentChunkRespMsg::DecodeFrom(msg.payload(), &resp).ok()) return;
  auto it = repair_sessions_.find({resp.pg, resp.req_id});
  if (it == repair_sessions_.end()) return;  // aborted or unknown transfer
  // Per-chunk payload CRC: a flipped bit the fabric checksum missed (or a
  // donor-side torn read) must never enter the reassembly buffer.
  if (crc32c::Mask(crc32c::Value(resp.data.data(), resp.data.size())) !=
      resp.chunk_crc) {
    ++stats_.repair_chunk_crc_drops;
    return;  // the manager's chunk timeout re-requests it
  }
  RepairSession& session = it->second;
  if (session.meta_known && session.blob_crc != resp.blob_crc) {
    // The snapshot changed under the transfer (donor failover to a peer
    // with different state, or the donor crashed and rebuilt). Bytes from
    // two snapshots must never mix; restart the reassembly.
    session.buffer.clear();
    session.chunks_received = 0;
    session.meta_known = false;
  }
  RepairProgress progress;
  progress.req_id = resp.req_id;
  progress.chunk_index = resp.chunk_index;
  progress.total_chunks = resp.total_chunks;
  progress.total_bytes = resp.total_bytes;
  progress.blob_crc = resp.blob_crc;
  if (!session.meta_known) {
    if (resp.chunk_index != 0) {
      // Mid-blob chunk of a snapshot we have no prefix of — tell the
      // manager to restart this transfer from chunk 0.
      progress.event = RepairEvent::kMismatch;
      NotifyRepairProgress(resp.pg, progress);
      return;
    }
    session.meta_known = true;
    session.total_chunks = resp.total_chunks;
    session.total_bytes = resp.total_bytes;
    session.blob_crc = resp.blob_crc;
  }
  // Strict sequencing: only the next expected chunk extends the buffer;
  // duplicates and reordered strays are dropped (the manager re-requests on
  // timeout, so nothing is lost).
  if (resp.chunk_index != session.chunks_received) return;
  // Persist the verified chunk, then integrate. Buffer bookkeeping happens
  // only after the persist succeeds: a torn write leaves the session
  // expecting the same chunk, and the manager's timeout re-sends it.
  const uint64_t gen = generation_;
  disk_.Write(resp.data.size(),
              [this, gen, resp = std::move(resp),
               progress](Status s) mutable {
    if (gen != generation_ || crashed_) return;
    if (!s.ok()) {
      if (s.IsCorruption()) ++stats_.torn_write_drops;
      return;
    }
    auto it = repair_sessions_.find({resp.pg, resp.req_id});
    if (it == repair_sessions_.end()) return;
    RepairSession& session = it->second;
    if (resp.chunk_index != session.chunks_received ||
        session.blob_crc != resp.blob_crc) {
      return;  // the session moved on while the persist was in flight
    }
    session.buffer.append(resp.data);
    ++session.chunks_received;
    if (session.chunks_received < session.total_chunks) {
      progress.event = RepairEvent::kChunk;
      NotifyRepairProgress(resp.pg, progress);
      return;
    }
    // Final chunk: verify the whole reassembled blob, then install.
    std::string blob = std::move(session.buffer);
    const uint32_t want_crc = session.blob_crc;
    const uint64_t want_bytes = session.total_bytes;
    repair_sessions_.erase(it);
    const bool sane =
        blob.size() == want_bytes &&
        crc32c::Mask(crc32c::Value(blob.data(), blob.size())) == want_crc;
    if (sane && InstallSegmentCopy(resp.pg, blob)) {
      progress.event = RepairEvent::kInstalled;
    } else {
      progress.event = RepairEvent::kFailed;
    }
    NotifyRepairProgress(resp.pg, progress);
  });
}

}  // namespace aurora
