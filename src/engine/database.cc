#include "engine/database.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/row_codec.h"
#include "storage/storage_node.h"

namespace aurora {

namespace {

constexpr char kNextPageKey[] = "next_page";
constexpr char kTxnTableName[] = "tbl:__txn";
constexpr char kUndoTreeName[] = "tbl:__undo";
// Free-list entries on the meta page: "free:" + fixed64 page id, empty
// value. Sorts below kNextPageKey and the "tbl:" catalog entries.
constexpr char kFreePagePrefix[] = "free:";
constexpr size_t kFreePagePrefixLen = 5;

void PutBigEndian64(std::string* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

std::string EncodeCatalogValue(PageId anchor, uint32_t version) {
  std::string v;
  PutFixed64(&v, anchor);
  PutFixed32(&v, version);
  return v;
}

bool DecodeCatalogValue(const Slice& v, PageId* anchor, uint32_t* version) {
  if (v.size() != 12) return false;
  *anchor = DecodeFixed64(v.data());
  *version = DecodeFixed32(v.data() + 8);
  return true;
}

std::string EncodeTxnStateValue(TxnState state) {
  return std::string(1, static_cast<char>(state));
}

std::string EncodeUndoValue(PageId table, const std::string& key, bool had_old,
                            const std::string& old_value) {
  std::string v;
  PutFixed64(&v, table);
  v.push_back(had_old ? 1 : 0);
  PutLengthPrefixedSlice(&v, key);
  v += old_value;
  return v;
}

Status DecodeUndoValue(const Slice& raw, PageId* table, std::string* key,
                       bool* had_old, std::string* old_value) {
  Slice in(raw);
  uint64_t tbl;
  if (!GetFixed64(&in, &tbl) || in.empty()) {
    return Status::Corruption("bad undo value");
  }
  *table = tbl;
  *had_old = in[0] != 0;
  in.remove_prefix(1);
  Slice k;
  if (!GetLengthPrefixedSlice(&in, &k)) {
    return Status::Corruption("bad undo key");
  }
  key->assign(k.data(), k.size());
  old_value->assign(in.data(), in.size());
  return Status::OK();
}

}  // namespace

std::string Database::UndoKey(TxnId txn, uint64_t seq) {
  std::string k = "u";
  PutBigEndian64(&k, txn);
  PutBigEndian64(&k, seq);
  return k;
}

std::string Database::TxnKey(TxnId txn) {
  std::string k = "t";
  PutBigEndian64(&k, txn);
  return k;
}

// The writer's recovery protocol state (§4.3).
struct Database::RecoveryState {
  std::function<void(Status)> done;
  uint64_t req_id = 0;
  int phase = 1;  // 1 = inventory, 2 = truncate
  // Phase 1.
  std::map<PgId, std::map<Lsn, InventoryEntry>> union_entries;
  std::map<PgId, std::set<ReplicaIdx>> inventory_acks;
  /// Durable completeness floor: the max VDL hint any segment holds.
  Lsn floor = kInvalidLsn;
  // Phase 2.
  Lsn new_vdl = kInvalidLsn;
  Epoch new_epoch = 0;
  std::map<PgId, std::set<ReplicaIdx>> truncate_acks;
  sim::EventId retry_event = 0;
  SimTime started_at = 0;
};

Database::Database(sim::EventLoop* loop, sim::Network* network,
                   sim::NodeId node_id, sim::Instance* instance,
                   ControlPlane* control_plane, EngineOptions options,
                   Random rng)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      instance_(instance),
      control_plane_(control_plane),
      options_(options),
      rng_(rng),
      pool_(options.buffer_pool_pages, options.page_size, &vdl_),
      locks_(loop, options.lock_timeout) {
  network_->Register(node_id_,
                     [this](const sim::Message& m) { HandleMessage(m); });
}

Database::~Database() = default;

void Database::HandleMessage(const sim::Message& msg) {
  if (!network_->VerifyFrame(msg)) {
    ++stats_.corrupt_frames_dropped;
    return;
  }
  switch (msg.type) {
    case kMsgWriteAck:
      HandleWriteAck(msg);
      break;
    case kMsgReadPageResp:
      HandleReadPageResp(msg);
      break;
    case kMsgInventoryResp:
      HandleInventoryResp(msg);
      break;
    case kMsgTruncateAck:
      HandleTruncateAck(msg);
      break;
    case kMsgReplicaReadPoint:
      HandleReplicaReadPoint(msg);
      break;
    default:
      break;
  }
}

// --------------------------------------------------------------------------
// Bootstrap & lifecycle
// --------------------------------------------------------------------------

void Database::Bootstrap(std::function<void(Status)> done) {
  if (control_plane_->num_pgs() != 0) {
    done(Status::InvalidArgument("volume already exists; use Recover()"));
    return;
  }
  EnsurePgExists(0);
  MiniTransaction mtr(kInvalidTxn);

  // Page 0: the allocator + catalog meta page.
  Page* meta = pool_.InstallNew(meta_page_id_);
  {
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kFormatPage;
    rec.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kMeta), 0);
    AURORA_CHECK(mtr.Apply(meta, std::move(rec)).ok(), "meta format failed");
  }
  {
    std::string next;
    PutFixed64(&next, 1);
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
    AURORA_CHECK(mtr.Apply(meta, std::move(rec)).ok(), "meta init failed");
  }
  pool_.Pin(meta_page_id_);

  // System trees: the transaction table and the undo log.
  auto create_tree = [&](const char* name) -> PageId {
    Result<PageId> anchor = BTree::Create(this, &mtr);
    AURORA_CHECK(anchor.ok(), "system tree creation failed");
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload =
        LogRecord::MakeKeyValuePayload(name, EncodeCatalogValue(*anchor, 0));
    AURORA_CHECK(mtr.Apply(meta, std::move(rec)).ok(), "catalog insert failed");
    pool_.Pin(*anchor);
    return *anchor;
  };
  txn_table_ = std::make_unique<BTree>(this, create_tree(kTxnTableName));
  undo_tree_ = std::make_unique<BTree>(this, create_tree(kUndoTreeName));

  Status s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "bootstrap commit failed");
  durable_waiters_.emplace(mtr.commit_lsn(), [this, done]() {
    open_ = true;
    ScheduleTimers();
    done(Status::OK());
  });
  AdvanceDurability();
}

void Database::Crash() {
  ++generation_;
  open_ = false;
  // Cancel every timer whose closure captures this engine. The generation
  // guard already neutralizes late firings, but the loop would otherwise
  // retain the closures (and their captured `this`) until they fire —
  // a use-after-free hazard if the Database is destroyed before the loop
  // drains, and unbounded bookkeeping growth in long chaos runs.
  for (auto& [pg, batch] : pending_batches_) {
    if (batch.linger_armed) loop_->Cancel(batch.linger_event);
  }
  for (auto& [seq, batch] : outstanding_) {
    if (batch->retry_event != 0) loop_->Cancel(batch->retry_event);
  }
  for (auto& [req, pr] : pending_reads_) {
    if (pr.timeout_event != 0) loop_->Cancel(pr.timeout_event);
  }
  if (recovery_ != nullptr && recovery_->retry_event != 0) {
    loop_->Cancel(recovery_->retry_event);
  }
  loop_->Cancel(pgmrpl_timer_);
  loop_->Cancel(purge_timer_);
  loop_->Cancel(ship_timer_);
  loop_->Cancel(zdp_timer_);
  pool_.Clear();
  locks_.Reset();
  txns_.clear();
  commit_queue_.clear();
  durable_waiters_.clear();
  backpressure_queue_.clear();
  purge_queue_.clear();
  pending_batches_.clear();
  outstanding_.clear();
  replica_scl_.clear();
  pg_config_.clear();
  restarts_.Clear();
  fetch_in_flight_.clear();
  pending_reads_.clear();
  replica_stream_buffer_.clear();
  replica_commit_buffer_.clear();
  unacked_lsns_.clear();
  pending_cpls_.clear();
  last_lsn_per_pg_.clear();
  txn_table_.reset();
  undo_tree_.reset();
  table_versions_.clear();
  recovery_.reset();
}

void Database::ScheduleTimers() {
  const uint64_t gen = generation_;
  pgmrpl_timer_ = loop_->Schedule(options_.pgmrpl_interval, [this, gen] {
    if (gen == generation_ && open_) PgmrplTick();
  });
  purge_timer_ = loop_->Schedule(options_.purge_interval, [this, gen] {
    if (gen == generation_ && open_) PurgeTick();
  });
  ship_timer_ = loop_->Schedule(options_.replica_ship_interval, [this, gen] {
    if (gen == generation_ && open_) ReplicaShipTick();
  });
}

// --------------------------------------------------------------------------
// WalSink: LSN allocation and batching (§4.2.1)
// --------------------------------------------------------------------------

Status Database::CommitMtr(MiniTransaction* mtr) {
  auto& records = mtr->records();
  const auto& pages = mtr->pages();
  if (records.empty()) return Status::OK();
  for (size_t i = 0; i < records.size(); ++i) {
    LogRecord& rec = records[i];
    if (i + 1 == records.size()) rec.flags |= kFlagCpl;
    PgId pg = PgOf(rec.page_id);
    EnsurePgExists(pg);
    rec.lsn = next_lsn_;
    auto [it, inserted] = last_lsn_per_pg_.try_emplace(pg, kInvalidLsn);
    rec.prev_pg_lsn = it->second;
    it->second = rec.lsn;
    rec.prev_vol_lsn = last_vol_lsn_;
    last_vol_lsn_ = rec.lsn;
    next_lsn_ += rec.EncodedSize();
    max_allocated_ = rec.lsn;
    pages[i]->set_page_lsn(rec.lsn);
    unacked_lsns_.insert(rec.lsn);
    if (rec.is_cpl()) pending_cpls_.insert(rec.lsn);
    ++stats_.log_records_sent;
    stats_.log_bytes_generated += rec.EncodedSize();
    if (!replicas_.empty()) replica_stream_buffer_.push_back(rec);
    AppendToBatch(rec);
  }
  mtr->set_commit_lsn(records.back().lsn);
  return Status::OK();
}

void Database::EnsurePgExists(PgId pg) {
  while (control_plane_->num_pgs() <= pg) {
    control_plane_->CreatePg(options_.page_size);
  }
}

const Database::CachedConfig& Database::PgConfig(PgId pg) {
  auto it = pg_config_.find(pg);
  if (it == pg_config_.end()) {
    const PgMembership& members = control_plane_->membership(pg);
    it = pg_config_
             .emplace(pg, CachedConfig{members.nodes, members.config_epoch})
             .first;
  }
  return it->second;
}

void Database::RefreshPgConfig(PgId pg) {
  const PgMembership& members = control_plane_->membership(pg);
  auto it = pg_config_.find(pg);
  if (it == pg_config_.end()) {
    pg_config_.emplace(pg, CachedConfig{members.nodes, members.config_epoch});
    return;
  }
  // Forget ack-derived SCL watermarks for slots whose host changed: the old
  // host's progress says nothing about its replacement.
  for (int i = 0; i < kReplicasPerPg; ++i) {
    if (it->second.nodes[i] != members.nodes[i]) {
      replica_scl_.erase({pg, static_cast<ReplicaIdx>(i)});
    }
  }
  it->second.nodes = members.nodes;
  it->second.config_epoch = members.config_epoch;
}

void Database::AppendToBatch(const LogRecord& record) {
  PgId pg = PgOf(record.page_id);
  PendingBatch& batch = pending_batches_[pg];
  batch.pg = pg;
  if (batch.records.empty()) batch.first_append_at = loop_->now();
  batch.bytes += record.EncodedSize();
  batch.records.push_back(record);
  if (batch.bytes >= options_.batch_max_bytes) {
    FlushBatch(pg);
    return;
  }
  if (!batch.linger_armed) {
    batch.linger_armed = true;
    const uint64_t gen = generation_;
    batch.linger_event = loop_->Schedule(options_.batch_linger, [this, gen, pg] {
      if (gen != generation_) return;
      FlushBatch(pg);
    });
  }
}

void Database::FlushBatch(PgId pg) {
  auto it = pending_batches_.find(pg);
  if (it == pending_batches_.end() || it->second.records.empty()) return;
  PendingBatch batch = std::move(it->second);
  pending_batches_.erase(it);
  if (batch.linger_armed) loop_->Cancel(batch.linger_event);

  auto ob = std::make_unique<OutstandingBatch>(options_.quorum);
  ob->pg = pg;
  ob->seq = next_batch_seq_++;
  ob->appended_at = batch.first_append_at;
  ob->flushed_at = loop_->now();
  stats_.batch_append_to_flush_us.Record(ob->flushed_at - ob->appended_at);
  ob->records = std::move(batch.records);
  for (const LogRecord& r : ob->records) ob->lsns.push_back(r.lsn);
  OutstandingBatch* raw = ob.get();
  outstanding_[ob->seq] = std::move(ob);
  ++stats_.log_batches_sent;
  SendBatch(raw);
}

void Database::SendBatch(OutstandingBatch* batch) {
  if (fenced_) return;
  const CachedConfig& cfg = PgConfig(batch->pg);
  const Lsn pgmrpl = ComputePgmrpl();
  // Single-encode fan-out: the body (epoch, seq, hints, record blob) is
  // identical for all replicas, so serialize it once and share the buffer
  // across the un-acked sends; only the tiny pg+replica header is built per
  // destination.
  std::shared_ptr<const std::string> body;
  uint64_t sends = 0;
  for (int idx = 0; idx < kReplicasPerPg; ++idx) {
    if (batch->tracker.has_ack_from(idx)) continue;
    if (!body) {
      auto encoded = std::make_shared<std::string>();
      WriteBatchMsg::EncodeBody(volume_epoch_, cfg.config_epoch, batch->seq,
                                vdl_, pgmrpl, batch->records, encoded.get());
      body = std::move(encoded);
    }
    WriteBatchMsg header_msg;
    header_msg.pg = batch->pg;
    header_msg.replica = static_cast<ReplicaIdx>(idx);
    std::string header;
    header_msg.EncodeHeaderTo(&header);
    network_->Send(node_id_, cfg.nodes[idx], kMsgWriteBatch,
                   std::move(header), body);
    ++sends;
  }
  if (sends > 1) {
    stats_.batch_encode_bytes_saved += (sends - 1) * body->size();
  }
  // Retry until the write quorum is reached: storage nodes deduplicate by
  // LSN and re-ack, so resends are idempotent.
  const uint64_t gen = generation_;
  const uint64_t seq = batch->seq;
  SimDuration backoff = Millis(10) << std::min(batch->attempts, 5);
  batch->retry_event = loop_->Schedule(backoff, [this, gen, seq] {
    if (gen != generation_) return;
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    ++it->second->attempts;
    ++stats_.batch_retries;
    SendBatch(it->second.get());
  });
}

void Database::HandleWriteAck(const sim::Message& msg) {
  WriteAckMsg ack;
  if (!WriteAckMsg::DecodeFrom(msg.payload(), &ack).ok()) return;
  // Guard against our *cached* view, not the control plane: a kStaleConfig
  // NAK arrives precisely from hosts our stale cache still believes in.
  const CachedConfig& cfg = PgConfig(ack.pg);
  if (ack.replica >= kReplicasPerPg || cfg.nodes[ack.replica] != msg.from) {
    return;  // ack from a replaced (stale) replica
  }
  if (ack.status_code == static_cast<uint8_t>(Status::Code::kFenced)) {
    // Storage has seen a newer volume epoch: a replica was promoted while
    // this writer was partitioned. Demote instead of retrying forever.
    BecomeFenced(ack.epoch);
    return;
  }
  if (ack.status_code == static_cast<uint8_t>(Status::Code::kStaleConfig)) {
    // The PG's membership moved (a repair or migration completed) and this
    // writer's cached member list is behind: refresh from the control plane
    // and resend the batch to the new member set immediately. Every live
    // member NAKs the same stale batch, so only the first NAK per epoch
    // bump (the one our cache is actually behind) triggers the resend.
    if (ack.cfg_epoch > cfg.config_epoch) {
      ++stats_.stale_config_refreshes;
      RefreshPgConfig(ack.pg);
      auto sit = outstanding_.find(ack.batch_seq);
      if (sit != outstanding_.end()) {
        loop_->Cancel(sit->second->retry_event);
        SendBatch(sit->second.get());
      }
    }
    return;
  }
  Lsn& known = replica_scl_[{ack.pg, ack.replica}];
  if (ack.scl > known) known = ack.scl;

  auto it = outstanding_.find(ack.batch_seq);
  if (it == outstanding_.end()) return;
  OutstandingBatch* batch = it->second.get();
  const bool quorum_reached = batch->tracker.Ack(ack.replica);
  if (batch->first_ack_at == 0 && batch->tracker.acks() > 0) {
    batch->first_ack_at = loop_->now();
  }
  if (quorum_reached) {
    loop_->Cancel(batch->retry_event);
    stats_.batch_flush_to_first_ack_us.Record(batch->first_ack_at -
                                              batch->flushed_at);
    stats_.batch_first_ack_to_quorum_us.Record(loop_->now() -
                                               batch->first_ack_at);
    stats_.batch_append_to_quorum_us.Record(loop_->now() - batch->appended_at);
    for (Lsn lsn : batch->lsns) unacked_lsns_.erase(lsn);
    outstanding_.erase(it);
    AdvanceDurability();
    // VDL advances unlock eviction of freshly durable pages.
    pool_.EvictExcess();
  }
}

void Database::AdvanceDurability() {
  const Lsn durable =
      unacked_lsns_.empty() ? max_allocated_ : *unacked_lsns_.begin() - 1;
  if (durable > vcl_) vcl_ = durable;
  bool advanced = false;
  while (!pending_cpls_.empty() && *pending_cpls_.begin() <= durable) {
    vdl_ = *pending_cpls_.begin();
    pending_cpls_.erase(pending_cpls_.begin());
    advanced = true;
  }
  if (!advanced) return;
  ProcessCommitQueue();
  while (!durable_waiters_.empty() && durable_waiters_.begin()->first <= vdl_) {
    auto cb = std::move(durable_waiters_.begin()->second);
    durable_waiters_.erase(durable_waiters_.begin());
    cb();
  }
  DrainBackpressure();
}

void Database::ProcessCommitQueue() {
  // §4.2.2: a dedicated completion pass acks every commit whose commit LSN
  // the VDL has passed; worker "threads" never wait.
  while (!commit_queue_.empty() && commit_queue_.begin()->first <= vdl_) {
    TxnId id = commit_queue_.begin()->second;
    commit_queue_.erase(commit_queue_.begin());
    Txn* t = FindTxn(id);
    if (t == nullptr) continue;
    t->state = TxnState::kCommitted;
    auto cb = std::move(t->commit_cb);
    stats_.commit_latency_us.Record(loop_->now() - t->commit_requested_at);
    ++stats_.txns_committed;
    replica_commit_buffer_.emplace_back(t->commit_lsn, loop_->now());
    bool registered = t->durably_registered;
    locks_.ReleaseAll(id);
    txns_.erase(id);
    if (registered) purge_queue_.push_back(id);
    if (cb) cb(Status::OK());
  }
}

void Database::BecomeFenced(Epoch fencing_epoch) {
  if (fenced_) return;
  fenced_ = true;
  open_ = false;
  ++stats_.fenced_rejections;
  AURORA_WARN("writer %u fenced by volume epoch %llu (local epoch %llu)",
              node_id_, static_cast<unsigned long long>(fencing_epoch),
              static_cast<unsigned long long>(volume_epoch_));
  // Stop the write pipeline: no batch may ever be resent under the dead
  // epoch, and nothing queued behind durability can ever be acked.
  for (auto& [pg, batch] : pending_batches_) {
    if (batch.linger_armed) loop_->Cancel(batch.linger_event);
  }
  pending_batches_.clear();
  for (auto& [seq, batch] : outstanding_) {
    if (batch->retry_event != 0) loop_->Cancel(batch->retry_event);
  }
  outstanding_.clear();
  for (auto& [req, pr] : pending_reads_) {
    if (pr.timeout_event != 0) loop_->Cancel(pr.timeout_event);
  }
  pending_reads_.clear();
  fetch_in_flight_.clear();
  restarts_.Clear();
  durable_waiters_.clear();
  backpressure_queue_.clear();
  commit_queue_.clear();
  // Surface the demotion to every caller still waiting on a commit: their
  // writes may or may not survive (the new writer's recovery decides), but
  // this instance can no longer promise either way.
  std::vector<std::function<void(Status)>> waiting;
  for (auto& [id, t] : txns_) {
    if (t->commit_cb) waiting.push_back(std::move(t->commit_cb));
  }
  txns_.clear();
  locks_.Reset();
  for (auto& cb : waiting) {
    cb(Status::Fenced("writer superseded by a newer volume epoch"));
  }
}

void Database::DeferForBackpressure(std::function<void()> retry) {
  ++stats_.backpressure_stalls;
  backpressure_queue_.push_back(std::move(retry));
}

void Database::DrainBackpressure() {
  if (paused_) return;
  while (!backpressure_queue_.empty() && !in_backpressure()) {
    auto retry = std::move(backpressure_queue_.front());
    backpressure_queue_.pop_front();
    retry();
  }
}

// --------------------------------------------------------------------------
// PageProvider: buffer pool + storage fetches (§4.2.3)
// --------------------------------------------------------------------------

Result<Page*> Database::GetPage(PageId id) {
  Page* page = pool_.Lookup(id);
  if (page != nullptr) return page;
  restarts_.NoteMiss(id);
  StartPageFetch(id);
  return Status::Busy("page miss");
}

Result<Page*> Database::AllocatePage(PageType type, uint8_t level,
                                     MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  // Reuse a freed page when the free-list has one; the page space only
  // grows when the list is empty.
  int slot = (*meta)->LowerBound(kFreePagePrefix);
  if (slot < (*meta)->slot_count()) {
    Slice k = (*meta)->KeyAt(slot);
    if (k.size() == kFreePagePrefixLen + 8 && k.starts_with(kFreePagePrefix)) {
      const PageId id = DecodeFixed64(k.data() + kFreePagePrefixLen);
      LogRecord del;
      del.page_id = meta_page_id_;
      del.op = RedoOp::kDelete;
      del.payload = LogRecord::MakeKeyPayload(k);
      Status s = mtr->Apply(*meta, std::move(del));
      if (!s.ok()) return s;
      EnsurePgExists(PgOf(id));
      // The freed page may have been evicted; the buffer just needs to be
      // resident — the format record rebuilds it from nothing.
      Page* page = pool_.InstallNew(id);
      LogRecord fmt;
      fmt.page_id = id;
      fmt.op = RedoOp::kFormatPage;
      fmt.payload =
          LogRecord::MakeFormatPayload(static_cast<uint8_t>(type), level);
      s = mtr->Apply(page, std::move(fmt));
      if (!s.ok()) return s;
      ++stats_.pages_reused;
      return page;
    }
  }
  Slice v;
  if (!(*meta)->GetRecord(kNextPageKey, &v) || v.size() != 8) {
    return Status::Corruption("allocator record missing");
  }
  PageId id = DecodeFixed64(v.data());
  std::string next;
  PutFixed64(&next, id + 1);
  LogRecord upd;
  upd.page_id = meta_page_id_;
  upd.op = RedoOp::kUpdate;
  upd.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
  Status s = mtr->Apply(*meta, std::move(upd));
  if (!s.ok()) return s;

  EnsurePgExists(PgOf(id));
  Page* page = pool_.InstallNew(id);
  LogRecord fmt;
  fmt.page_id = id;
  fmt.op = RedoOp::kFormatPage;
  fmt.payload =
      LogRecord::MakeFormatPayload(static_cast<uint8_t>(type), level);
  s = mtr->Apply(page, std::move(fmt));
  if (!s.ok()) return s;
  return page;
}

Status Database::FreePage(Page* page, MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  std::string key = kFreePagePrefix;
  PutFixed64(&key, page->page_id());
  // A meta page with no room only costs the reuse of this one id: leak it
  // rather than fail the caller's already-applied structural change.
  if ((*meta)->HasRoomFor(key.size(), 0)) {
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload = LogRecord::MakeKeyValuePayload(key, Slice());
    Status s = mtr->Apply(*meta, std::move(rec));
    if (!s.ok()) return s;
  }
  LogRecord fmt;
  fmt.page_id = page->page_id();
  fmt.op = RedoOp::kFormatPage;
  fmt.payload =
      LogRecord::MakeFormatPayload(static_cast<uint8_t>(PageType::kFree), 0);
  Status s = mtr->Apply(page, std::move(fmt));
  if (!s.ok()) return s;
  ++stats_.pages_freed;
  return Status::OK();
}

void Database::StartPageFetch(PageId id) {
  if (fetch_in_flight_.count(id)) return;
  uint64_t req = next_req_++;
  fetch_in_flight_[id] = req;
  PendingRead pr;
  pr.page = id;
  pr.pg = PgOf(id);
  pr.read_point = vdl_;
  pr.started_at = loop_->now();
  pending_reads_[req] = pr;
  ++stats_.storage_page_reads;
  IssuePageRead(req);
}

sim::NodeId Database::PickReadReplicaNode(PgId pg, Lsn read_point,
                                          int attempt) {
  const CachedConfig& members = PgConfig(pg);
  const sim::Topology* topo = control_plane_->topology();
  // Replicas known (from acks) to be complete at the read point, same-AZ
  // first — the writer can route reads to a single up-to-date segment
  // (§4.2.3); no quorum read is needed.
  std::vector<int> candidates;
  for (int i = 0; i < kReplicasPerPg; ++i) {
    auto it = replica_scl_.find({pg, static_cast<ReplicaIdx>(i)});
    if (it != replica_scl_.end() && it->second >= read_point) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    for (int i = 0; i < kReplicasPerPg; ++i) candidates.push_back(i);
  }
  std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    bool la = topo->SameAz(node_id_, members.nodes[a]);
    bool lb = topo->SameAz(node_id_, members.nodes[b]);
    return la > lb;
  });
  return members.nodes[candidates[attempt % candidates.size()]];
}

void Database::IssuePageRead(uint64_t req_id) {
  auto it = pending_reads_.find(req_id);
  if (it == pending_reads_.end()) return;
  PendingRead& pr = it->second;
  sim::NodeId target = PickReadReplicaNode(pr.pg, pr.read_point,
                                           pr.replica_tried);
  ReadPageReqMsg req;
  req.req_id = req_id;
  req.pg = pr.pg;
  req.page = pr.page;
  req.read_point = pr.read_point;
  req.epoch = volume_epoch_;
  req.cfg_epoch = PgConfig(pr.pg).config_epoch;
  std::string payload;
  req.EncodeTo(&payload);
  network_->Send(node_id_, target, kMsgReadPageReq, std::move(payload));

  const uint64_t gen = generation_;
  pr.timeout_event =
      loop_->Schedule(options_.read_retry_timeout, [this, gen, req_id] {
        if (gen != generation_) return;
        auto it = pending_reads_.find(req_id);
        if (it == pending_reads_.end()) return;
        ++it->second.replica_tried;
        ++stats_.read_retries;
        IssuePageRead(req_id);
      });
}

void Database::HandleReadPageResp(const sim::Message& msg) {
  ReadPageRespMsg resp;
  if (!ReadPageRespMsg::DecodeFrom(msg.payload(), &resp).ok()) return;
  auto it = pending_reads_.find(resp.req_id);
  if (it == pending_reads_.end()) return;  // late duplicate
  PendingRead& pr = it->second;
  loop_->Cancel(pr.timeout_event);

  if (resp.status_code == static_cast<uint8_t>(Status::Code::kFenced)) {
    BecomeFenced(0);  // the segment outran our epoch; exact value unknown
    return;
  }
  if (resp.status_code == static_cast<uint8_t>(Status::Code::kStaleConfig)) {
    // Not a demotion — our membership cache is behind. Refresh and retry
    // against the current member set.
    ++stats_.stale_config_refreshes;
    RefreshPgConfig(pr.pg);
    ++pr.replica_tried;
    ++stats_.read_retries;
    IssuePageRead(resp.req_id);
    return;
  }
  if (resp.status_code != static_cast<uint8_t>(Status::Code::kOk)) {
    // Wrong replica (incomplete / GC'd past us) — try another after a short
    // pause; gossip heals lagging segments. If the PG is idle, its segments
    // may simply lack a completeness snapshot at this read point: publish
    // one proactively instead of waiting for the PGMRPL rotation.
    PublishPgSnapshot(pr.pg);
    ++pr.replica_tried;
    ++stats_.read_retries;
    const uint64_t gen = generation_;
    const uint64_t req_id = resp.req_id;
    pr.timeout_event = loop_->Schedule(Millis(1), [this, gen, req_id] {
      if (gen != generation_) return;
      IssuePageRead(req_id);
    });
    return;
  }

  Result<Page> page = Page::FromImage(resp.page_bytes, options_.page_size);
  if (!page.ok() || !page->VerifyCrc()) {
    ++pr.replica_tried;
    IssuePageRead(resp.req_id);
    return;
  }
  PageId id = pr.page;
  stats_.page_fetch_latency_us.Record(loop_->now() - pr.started_at);
  stats_.read_retry_depth.Record(static_cast<uint64_t>(pr.replica_tried));
  pending_reads_.erase(it);
  fetch_in_flight_.erase(id);
  pool_.Install(id, std::move(*page));
  restarts_.PageInstalled(id);
}

// --------------------------------------------------------------------------
// Schema
// --------------------------------------------------------------------------

void Database::CreateTable(const std::string& name,
                           std::function<void(Status)> done) {
  std::string cat_key = "tbl:" + name;
  auto attempt = [this, cat_key]() -> Status {
    Result<Page*> meta = GetPage(meta_page_id_);
    if (!meta.ok()) return meta.status();
    Slice v;
    if ((*meta)->GetRecord(cat_key, &v)) {
      return Status::InvalidArgument("table exists");
    }
    MiniTransaction mtr(kInvalidTxn);
    Result<PageId> anchor = BTree::Create(this, &mtr);
    if (!anchor.ok()) {
      mtr.Abort();
      return anchor.status();
    }
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload =
        LogRecord::MakeKeyValuePayload(cat_key, EncodeCatalogValue(*anchor, 0));
    Status s = mtr.Apply(*meta, std::move(rec));
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    s = CommitMtr(&mtr);
    if (!s.ok()) return s;
    table_versions_[*anchor] = 0;
    durable_lsn_for_ddl_ = mtr.commit_lsn();
    return Status::OK();
  };
  restarts_.Run(attempt, [this, done](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    durable_waiters_.emplace(durable_lsn_for_ddl_,
                             [done]() { done(Status::OK()); });
    AdvanceDurability();
  });
}

void Database::AttachPreloadedTable(const std::string& name,
                                    std::function<uint64_t(PageId)> plan,
                                    std::function<void(Result<PageId>)> done) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) {
    done(meta.status());  // meta is pinned post-bootstrap; shouldn't happen
    return;
  }
  std::string cat_key = "tbl:" + name;
  Slice v;
  if ((*meta)->GetRecord(cat_key, &v)) {
    done(Status::InvalidArgument("table exists"));
    return;
  }
  if (!(*meta)->GetRecord(kNextPageKey, &v) || v.size() != 8) {
    done(Status::Corruption("allocator record missing"));
    return;
  }
  PageId first = DecodeFixed64(v.data());
  uint64_t count = plan(first);
  EnsurePgExists(PgOf(first + count - 1));

  MiniTransaction mtr(kInvalidTxn);
  std::string next;
  PutFixed64(&next, first + count);
  LogRecord upd;
  upd.page_id = meta_page_id_;
  upd.op = RedoOp::kUpdate;
  upd.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
  Status s = mtr.Apply(*meta, std::move(upd));
  if (!s.ok()) {
    mtr.Abort();
    done(s);
    return;
  }
  LogRecord ins;
  ins.page_id = meta_page_id_;
  ins.op = RedoOp::kInsert;
  ins.payload =
      LogRecord::MakeKeyValuePayload(cat_key, EncodeCatalogValue(first, 0));
  s = mtr.Apply(*meta, std::move(ins));
  if (!s.ok()) {
    mtr.Abort();
    done(s);
    return;
  }
  s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "attach commit failed");
  table_versions_[first] = 0;
  durable_waiters_.emplace(mtr.commit_lsn(),
                           [done, first]() { done(first); });
  AdvanceDurability();
}

Result<PageId> Database::TableAnchor(const std::string& name) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  Slice v;
  if (!(*meta)->GetRecord("tbl:" + name, &v)) {
    return Status::NotFound("no such table");
  }
  PageId anchor;
  uint32_t version;
  if (!DecodeCatalogValue(v, &anchor, &version)) {
    return Status::Corruption("bad catalog record");
  }
  table_versions_[anchor] = version;
  return anchor;
}

void Database::AlterTableSchema(const std::string& name,
                                std::function<void(Result<uint32_t>)> done) {
  std::string cat_key = "tbl:" + name;
  auto attempt = [this, cat_key]() -> Status {
    Result<Page*> meta = GetPage(meta_page_id_);
    if (!meta.ok()) return meta.status();
    Slice v;
    if (!(*meta)->GetRecord(cat_key, &v)) return Status::NotFound("no table");
    PageId anchor;
    uint32_t version;
    if (!DecodeCatalogValue(v, &anchor, &version)) {
      return Status::Corruption("bad catalog record");
    }
    MiniTransaction mtr(kInvalidTxn);
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kUpdate;
    rec.payload = LogRecord::MakeKeyValuePayload(
        cat_key, EncodeCatalogValue(anchor, version + 1));
    Status s = mtr.Apply(*meta, std::move(rec));
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    s = CommitMtr(&mtr);
    if (!s.ok()) return s;
    // Instant DDL (§7.3): only the catalog version changes; existing rows
    // keep their version stamp and are upgraded on modification, readers
    // decode any historical version.
    table_versions_[anchor] = version + 1;
    ddl_result_version_ = version + 1;
    durable_lsn_for_ddl_ = mtr.commit_lsn();
    return Status::OK();
  };
  restarts_.Run(attempt, [this, done](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    uint32_t version = ddl_result_version_;
    durable_waiters_.emplace(durable_lsn_for_ddl_,
                             [done, version]() { done(version); });
    AdvanceDurability();
  });
}

// --------------------------------------------------------------------------
// Transactions
// --------------------------------------------------------------------------

TxnId Database::Begin() {
  TxnId id = next_txn_++;
  auto txn = std::make_unique<Txn>();
  txn->id = id;
  txns_[id] = std::move(txn);
  ++stats_.txns_started;
  return id;
}

Database::Txn* Database::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

Status Database::WriteRowAttempt(Txn* txn, PageId table,
                                 const std::string& key,
                                 const std::string* value) {
  BTree tree(this, table);
  std::string old_raw;
  Status s = tree.Get(key, &old_raw);
  bool had_old;
  if (s.ok()) {
    had_old = true;
  } else if (s.IsNotFound()) {
    had_old = false;
  } else {
    return s;  // Busy (page miss) or corruption
  }
  if (value == nullptr && !had_old) return Status::NotFound("no such row");

  MiniTransaction mtr(txn->id);
  if (!txn->durably_registered) {
    s = txn_table_->Insert(TxnKey(txn->id),
                           EncodeTxnStateValue(TxnState::kActive), &mtr);
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
  }
  s = undo_tree_->Insert(UndoKey(txn->id, txn->next_undo_seq),
                         EncodeUndoValue(table, key, had_old, old_raw), &mtr);
  if (!s.ok()) {
    mtr.Abort();
    return s;
  }
  if (value != nullptr) {
    uint32_t version = 0;
    auto vit = table_versions_.find(table);
    if (vit != table_versions_.end()) version = vit->second;
    std::string row = EncodeRow(version, *value);
    s = had_old ? tree.Update(key, row, &mtr) : tree.Insert(key, row, &mtr);
  } else {
    s = tree.Delete(key, &mtr);
  }
  if (!s.ok()) {
    mtr.Abort();
    return s;
  }
  s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "CommitMtr failed");
  txn->undo.push_back(
      {txn->next_undo_seq, table, key, had_old, std::move(old_raw)});
  ++txn->next_undo_seq;
  txn->durably_registered = true;
  return Status::OK();
}

void Database::Put(TxnId txn, PageId table, const std::string& key,
                   const std::string& value,
                   std::function<void(Status)> done) {
  auto st = std::make_shared<Statement>(Statement::Kind::kPut, txn, table, key);
  st->value = value;
  st->write_done = std::move(done);
  RunStatement(std::move(st));
}

void Database::Delete(TxnId txn, PageId table, const std::string& key,
                      std::function<void(Status)> done) {
  auto st =
      std::make_shared<Statement>(Statement::Kind::kDelete, txn, table, key);
  st->write_done = std::move(done);
  RunStatement(std::move(st));
}

void Database::Get(TxnId txn, PageId table, const std::string& key,
                   std::function<void(Result<std::string>)> done) {
  auto st = std::make_shared<Statement>(Statement::Kind::kGet, txn, table, key);
  st->read_done = std::move(done);
  RunStatement(std::move(st));
}

void Database::SnapshotGet(TxnId txn, PageId table, const std::string& key,
                           std::function<void(Result<std::string>)> done) {
  auto st = std::make_shared<Statement>(Statement::Kind::kSnapshotGet, txn,
                                        table, key);
  st->read_done = std::move(done);
  RunStatement(std::move(st));
}

void Database::Scan(TxnId txn, PageId table, const std::string& start,
                    int limit, std::function<void(Result<ScanRows>)> done) {
  auto st =
      std::make_shared<Statement>(Statement::Kind::kScan, txn, table, start);
  st->limit = limit;
  st->scan_done = std::move(done);
  RunStatement(std::move(st));
}

void Database::RunStatement(std::shared_ptr<Statement> st) {
  if (!open_) {
    Status s = fenced_ ? Status::Fenced("writer fenced by a newer volume epoch")
                       : Status::Unavailable("database not open");
    ReplyStatement(st.get(), s);
    return;
  }
  if (!st->reads_committed()) {
    Txn* t = FindTxn(st->txn);
    if (t == nullptr || t->state != TxnState::kActive) {
      ReplyStatement(st.get(), Status::Aborted("transaction not active"));
      return;
    }
  }
  // The ZDP door (§7.4) holds every statement of a transaction begun after
  // the patch started; the LAL (§4.2.1) holds writes.
  if ((paused_ && st->txn >= pause_watermark_) ||
      (st->writes() && in_backpressure())) {
    DeferForBackpressure([this, st]() { RunStatement(st); });
    return;
  }
  ++(st->kind == Statement::Kind::kPut      ? stats_.writes
     : st->kind == Statement::Kind::kDelete ? stats_.deletes
                                            : stats_.reads);
  st->started = loop_->now();
  instance_->Execute(options_.cpu_per_statement,
                     [this, st = std::move(st)]() mutable {
                       LockAndRunStatement(std::move(st));
                     });
}

void Database::LockAndRunStatement(std::shared_ptr<Statement> st) {
  auto locked = [this, st](Status ls) {
    if (!ls.ok()) {
      Txn* t = FindTxn(st->txn);
      if (t == nullptr) {
        ReplyStatement(st.get(), ls);
        return;
      }
      RollbackInternal(t, [this, st, ls](Status) {
        ReplyStatement(st.get(), ls);
      });
      return;
    }
    Statement* raw = st.get();
    restarts_.Run([this, raw]() { return StatementAttempt(raw); },
                  [this, st](Status s) {
                    (st->writes() ? stats_.write_latency_us
                                  : stats_.read_latency_us)
                        .Record(loop_->now() - st->started);
                    ReplyStatement(st.get(), s);
                  });
  };
  if (st->reads_committed()) {
    locked(Status::OK());
    return;
  }
  const LockMode mode =
      st->writes() ? LockMode::kExclusive : LockMode::kShared;
  Status s = locks_.Lock(st->txn, st->table, st->key, mode, locked);
  if (!s.IsBusy()) locked(s);
}

Status Database::StatementAttempt(Statement* st) {
  BTree tree(this, st->table);
  switch (st->kind) {
    case Statement::Kind::kPut:
    case Statement::Kind::kDelete: {
      Txn* t = FindTxn(st->txn);
      if (t == nullptr || t->state != TxnState::kActive) {
        return Status::Aborted("transaction gone");
      }
      return WriteRowAttempt(
          t, st->table, st->key,
          st->kind == Statement::Kind::kPut ? &st->value : nullptr);
    }
    case Statement::Kind::kSnapshotGet:
      // Consistent (lock-free) read: if another active transaction has
      // changed the row, its undo chain holds the pre-image — undo-based
      // snapshot isolation as in InnoDB consistent reads.
      for (const auto& [id, t] : txns_) {
        if (t->state != TxnState::kActive) continue;
        for (auto it = t->undo.rbegin(); it != t->undo.rend(); ++it) {
          if (it->table != st->table || it->key != st->key) continue;
          if (!it->had_old) {
            return Status::NotFound("row created by in-flight txn");
          }
          st->row = it->old_value;
          return Status::OK();
        }
      }
      return tree.Get(st->key, &st->row);
    case Statement::Kind::kGet:
      return tree.Get(st->key, &st->row);
    case Statement::Kind::kScan:
      st->rows.clear();
      return tree.Scan(st->key, st->limit, &st->rows);
  }
  return Status::InvalidArgument("unknown statement");
}

void Database::ReplyStatement(Statement* st, const Status& s) {
  if (st->write_done) {
    st->write_done(s);
  } else if (st->read_done) {
    st->read_done(FinishRowRead(s, st->row));
  } else if (!s.ok()) {
    st->scan_done(s);
  } else {
    // Strip version stamps.
    for (auto& [k, raw] : st->rows) {
      Result<std::string> value = FinishRowRead(s, raw);
      if (value.ok()) raw = std::move(*value);
    }
    st->scan_done(std::move(st->rows));
  }
}

void Database::Commit(TxnId txn, std::function<void(Status)> done) {
  if (fenced_) {
    done(Status::Fenced("writer fenced by a newer volume epoch"));
    return;
  }
  Txn* t = FindTxn(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  if (t->state != TxnState::kActive) {
    done(Status::Aborted("transaction not active"));
    return;
  }
  t->commit_requested_at = loop_->now();
  if (!t->durably_registered) {
    // Read-only: nothing to harden.
    stats_.commit_latency_us.Record(0);
    ++stats_.txns_committed;
    locks_.ReleaseAll(txn);
    txns_.erase(txn);
    done(Status::OK());
    return;
  }
  if (in_backpressure()) {
    DeferForBackpressure([this, txn, done]() { Commit(txn, done); });
    return;
  }
  auto attempt = [this, txn]() -> Status {
    Txn* t = FindTxn(txn);
    if (t == nullptr) return Status::Aborted("transaction gone");
    MiniTransaction mtr(txn);
    Status s = txn_table_->Update(TxnKey(txn),
                                  EncodeTxnStateValue(TxnState::kCommitted),
                                  &mtr);
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    s = CommitMtr(&mtr);
    if (!s.ok()) return s;
    t->commit_lsn = mtr.commit_lsn();
    return Status::OK();
  };
  restarts_.Run(attempt, [this, txn, done](Status s) {
    Txn* t = FindTxn(txn);
    if (!s.ok() || t == nullptr) {
      done(s.ok() ? Status::Aborted("transaction gone") : s);
      return;
    }
    // §4.2.2: set the transaction aside; the commit completes when
    // VDL >= commit LSN.
    t->state = TxnState::kCommitted;  // logically decided; ack pending
    t->commit_cb = done;
    commit_queue_[t->commit_lsn] = txn;
    AdvanceDurability();
  });
}

void Database::Rollback(TxnId txn, std::function<void(Status)> done) {
  Txn* t = FindTxn(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  RollbackInternal(t, std::move(done));
}

void Database::RollbackInternal(Txn* t, std::function<void(Status)> done) {
  t->state = TxnState::kAborted;
  UndoOneEntry(t, t->undo.size(), std::move(done));
}

void Database::UndoOneEntry(Txn* t, size_t remaining,
                            std::function<void(Status)> done) {
  if (remaining == 0) {
    TxnId id = t->id;
    bool registered = t->durably_registered;
    if (!registered) {
      locks_.ReleaseAll(id);
      ++stats_.txns_aborted;
      txns_.erase(id);
      done(Status::OK());
      return;
    }
    // Durably mark aborted, then release.
    auto attempt = [this, id]() -> Status {
      MiniTransaction mtr(id);
      Status s = txn_table_->Update(TxnKey(id),
                                    EncodeTxnStateValue(TxnState::kAborted),
                                    &mtr);
      if (s.IsNotFound()) return Status::OK();  // already purged
      if (!s.ok()) {
        mtr.Abort();
        return s;
      }
      return CommitMtr(&mtr);
    };
    restarts_.Run(attempt, [this, id, done](Status s) {
      locks_.ReleaseAll(id);
      ++stats_.txns_aborted;
      purge_queue_.push_back(id);
      txns_.erase(id);
      done(s);
    });
    return;
  }
  const Txn::UndoEntry& e = t->undo[remaining - 1];
  TxnId id = t->id;
  auto attempt = [this, e]() -> Status {
    // Idempotent logical undo: restore the old value (or remove the
    // inserted row). Idempotence matters because recovery may replay this.
    MiniTransaction mtr(kInvalidTxn);
    BTree tree(this, e.table);
    Status s;
    if (e.had_old) {
      s = tree.Upsert(e.key, e.old_value, &mtr);
    } else {
      s = tree.Delete(e.key, &mtr);
      if (s.IsNotFound()) s = Status::OK();
    }
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    return CommitMtr(&mtr);
  };
  restarts_.Run(attempt, [this, id, remaining, done](Status s) {
    Txn* t = FindTxn(id);
    if (t == nullptr) {
      done(Status::Aborted("transaction gone during rollback"));
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    UndoOneEntry(t, remaining - 1, done);
  });
}

void Database::PurgeTick() {
  const uint64_t gen = generation_;
  // Purge must keep pace with the commit rate or the undo/txn-table trees
  // grow without bound; reschedule aggressively while a backlog exists.
  SimDuration next = purge_queue_.size() > 64
                         ? std::max<SimDuration>(options_.purge_interval / 100,
                                                 Micros(50))
                         : options_.purge_interval;
  purge_timer_ = loop_->Schedule(next, [this, gen] {
    if (gen == generation_ && open_) PurgeTick();
  });
  if (purge_queue_.empty()) return;
  PurgeChain(gen, std::min<size_t>(purge_queue_.size(), 64));
}

void Database::PurgeChain(uint64_t gen, size_t budget) {
  if (gen != generation_ || budget == 0 || purge_queue_.empty()) return;
  PurgeOne(gen, [this, gen, budget]() { PurgeChain(gen, budget - 1); });
}

void Database::PurgeOne(uint64_t gen, std::function<void()> next) {
  if (purge_queue_.empty()) return;
  TxnId id = purge_queue_.front();
  auto attempt = [this, id]() -> Status {
    // Delete up to a chunk of the transaction's undo records plus (when
    // done) its transaction-table row, in one MTR.
    std::vector<std::pair<std::string, std::string>> rows;
    Status s = undo_tree_->Scan(UndoKey(id, 0), 33, &rows);
    if (!s.ok()) return s;
    std::string prefix = UndoKey(id, 0).substr(0, 9);  // "u" + txn id
    MiniTransaction mtr(kInvalidTxn);
    int deleted = 0;
    bool more = false;
    for (const auto& [k, v] : rows) {
      if (k.compare(0, prefix.size(), prefix) != 0) break;
      if (deleted == 32) {
        more = true;
        break;
      }
      s = undo_tree_->Delete(k, &mtr);
      if (!s.ok()) {
        mtr.Abort();
        return s;
      }
      ++deleted;
    }
    if (!more) {
      s = txn_table_->Delete(TxnKey(id), &mtr);
      if (!s.ok() && !s.IsNotFound()) {
        mtr.Abort();
        return s;
      }
      purge_done_ = true;
    } else {
      purge_done_ = false;
    }
    if (mtr.empty()) return Status::OK();
    return CommitMtr(&mtr);
  };
  purge_done_ = false;
  restarts_.Run(attempt, [this, gen, id, next = std::move(next)](Status s) {
    if (gen != generation_) return;
    if (s.ok() && purge_done_ && !purge_queue_.empty() &&
        purge_queue_.front() == id) {
      purge_queue_.pop_front();
    }
    if (next) next();
  });
}

// --------------------------------------------------------------------------
// Watermarks & replication
// --------------------------------------------------------------------------

void Database::PublishPgSnapshot(PgId pg) {
  auto tail_it = last_lsn_per_pg_.find(pg);
  Lsn tail = tail_it == last_lsn_per_pg_.end() ? kInvalidLsn : tail_it->second;
  if (tail > vdl_) return;  // in-flight writes; batches will carry hints
  PgmrplMsg m;
  m.pg = pg;
  m.pgmrpl = ComputePgmrpl();
  m.has_snapshot = true;
  m.vdl_snapshot = vdl_;
  m.pg_tail = tail;
  std::string payload;
  m.EncodeTo(&payload);
  for (sim::NodeId node : control_plane_->membership(pg).nodes) {
    network_->Send(node_id_, node, kMsgPgmrplUpdate, payload);
  }
}

Lsn Database::ComputePgmrpl() const {
  // §4.2.3: the low-water mark below which no read request will ever come —
  // the min over outstanding storage reads and replica read points, or the
  // current VDL if none are outstanding.
  Lsn low = vdl_;
  for (const auto& [req, pr] : pending_reads_) {
    low = std::min(low, pr.read_point);
  }
  for (const auto& [node, rp] : replica_read_points_) {
    low = std::min(low, rp);
  }
  return low;
}

void Database::PgmrplTick() {
  const uint64_t gen = generation_;
  pgmrpl_timer_ = loop_->Schedule(options_.pgmrpl_interval, [this, gen] {
    if (gen == generation_ && open_) PgmrplTick();
  });
  Lsn pgmrpl = ComputePgmrpl();
  last_broadcast_pgmrpl_ = pgmrpl;
  // Explicit updates go to a rotating cohort of PGs (idle PGs never see
  // batches, whose hints otherwise carry the value).
  const size_t num_pgs = control_plane_->num_pgs();
  if (num_pgs == 0) return;
  const size_t cohort = std::min<size_t>(num_pgs, 8);
  for (size_t i = 0; i < cohort; ++i) {
    PgId pg = static_cast<PgId>((pgmrpl_cursor_ + i) % num_pgs);
    PgmrplMsg m;
    m.pg = pg;
    m.pgmrpl = pgmrpl;
    // Quiescent PG (no in-flight records): publish a consistent
    // completeness snapshot so its segments can serve reads at the current
    // VDL even though their SCL is far behind it.
    auto tail_it = last_lsn_per_pg_.find(pg);
    Lsn tail = tail_it == last_lsn_per_pg_.end() ? kInvalidLsn
                                                 : tail_it->second;
    if (tail <= vdl_) {
      m.has_snapshot = true;
      m.vdl_snapshot = vdl_;
      m.pg_tail = tail;
    }
    std::string payload;
    m.EncodeTo(&payload);
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId node : members.nodes) {
      network_->Send(node_id_, node, kMsgPgmrplUpdate, payload);
    }
  }
  pgmrpl_cursor_ = static_cast<PgId>((pgmrpl_cursor_ + cohort) % num_pgs);
}

void Database::ZeroDowntimePatch(SimDuration patch_time,
                                 std::function<void(Status)> done) {
  if (!open_ || paused_) {
    done(Status::Busy("engine not ready for patching"));
    return;
  }
  paused_ = true;
  pause_watermark_ = next_txn_;
  const uint64_t gen = generation_;
  // Wait for the instant with no active transactions (Figure 12): statements
  // of new transactions are held at the door, pre-pause transactions drain
  // at their next boundary.
  // The stored callback holds itself only weakly; the scheduled retry event
  // carries the strong reference. No self-cycle, so the closure (and `done`)
  // is freed as soon as the wait ends.
  auto wait_quiet = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_wait = wait_quiet;
  *wait_quiet = [this, gen, patch_time, done, weak_wait]() {
    if (gen != generation_) return;
    bool quiet = true;
    for (const auto& [id, t] : txns_) {
      if (id < pause_watermark_ && t->state == TxnState::kActive) {
        quiet = false;
        break;
      }
    }
    if (!quiet || !commit_queue_.empty()) {
      zdp_timer_ = loop_->Schedule(Millis(1), [next = weak_wait.lock()]() {
        if (next) (*next)();
      });
      return;
    }
    // Spool application state to local ephemeral storage, patch the
    // engine, reload: user sessions stay connected throughout.
    zdp_timer_ = loop_->Schedule(patch_time, [this, gen, done]() {
      if (gen != generation_) return;
      paused_ = false;
      DrainBackpressure();
      done(Status::OK());
    });
  };
  (*wait_quiet)();
}

void Database::AttachReplica(sim::NodeId replica_node) {
  replicas_.push_back(replica_node);
}

void Database::DetachReplica(sim::NodeId replica_node) {
  replicas_.erase(std::remove(replicas_.begin(), replicas_.end(),
                              replica_node),
                  replicas_.end());
  replica_read_points_.erase(replica_node);
}

void Database::ReplicaShipTick() {
  const uint64_t gen = generation_;
  ship_timer_ = loop_->Schedule(options_.replica_ship_interval, [this, gen] {
    if (gen == generation_ && open_) ReplicaShipTick();
  });
  if (replicas_.empty()) {
    replica_stream_buffer_.clear();
    replica_commit_buffer_.clear();
    return;
  }
  if (replica_stream_buffer_.empty() && replica_commit_buffer_.empty() &&
      vdl_ == last_shipped_vdl_) {
    return;
  }
  ReplicaStreamMsg msg;
  msg.vdl = vdl_;
  msg.records = std::move(replica_stream_buffer_);
  msg.commits = std::move(replica_commit_buffer_);
  replica_stream_buffer_.clear();
  replica_commit_buffer_.clear();
  last_shipped_vdl_ = vdl_;
  std::string payload;
  msg.EncodeTo(&payload);
  // One encoded stream shared by every replica copy: the fan-out neither
  // re-encodes nor re-copies the record blob per receiver.
  auto body = std::make_shared<const std::string>(std::move(payload));
  for (sim::NodeId node : replicas_) {
    network_->Send(node_id_, node, kMsgReplicaLogStream, std::string(), body);
  }
}

void Database::HandleReplicaReadPoint(const sim::Message& msg) {
  ReplicaReadPointMsg m;
  if (!ReplicaReadPointMsg::DecodeFrom(msg.payload(), &m).ok()) return;
  replica_read_points_[msg.from] = m.read_point;
}

// --------------------------------------------------------------------------
// Recovery (§4.3)
// --------------------------------------------------------------------------

void Database::Recover(std::function<void(Status)> done) {
  if (control_plane_->num_pgs() == 0) {
    done(Status::InvalidArgument("empty volume; use Bootstrap()"));
    return;
  }
  Crash();  // make sure all volatile state is reset
  fenced_ = false;  // a recovering instance starts fresh at the new epoch
  ++generation_;
  recovery_ = std::make_shared<RecoveryState>();
  recovery_->done = std::move(done);
  recovery_->req_id = next_req_++;
  recovery_->started_at = loop_->now();
  RecoveryCollectInventories(recovery_);
}

void Database::RecoveryCollectInventories(std::shared_ptr<RecoveryState> rs) {
  if (recovery_ != rs || rs->phase != 1) return;
  // (Re)request inventories from every PG lacking a read quorum of
  // responses.
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->inventory_acks[pg].size() >=
        static_cast<size_t>(options_.quorum.read_quorum)) {
      continue;
    }
    InventoryReqMsg req;
    req.req_id = rs->req_id;
    req.pg = pg;
    std::string payload;
    req.EncodeTo(&payload);
    auto body = std::make_shared<const std::string>(std::move(payload));
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId node : members.nodes) {
      network_->Send(node_id_, node, kMsgInventoryReq, std::string(), body);
    }
  }
  const uint64_t gen = generation_;
  rs->retry_event = loop_->Schedule(Millis(100), [this, gen, rs] {
    if (gen != generation_) return;
    RecoveryCollectInventories(rs);
  });
}

void Database::HandleInventoryResp(const sim::Message& msg) {
  InventoryRespMsg resp;
  if (!InventoryRespMsg::DecodeFrom(msg.payload(), &resp).ok()) return;
  auto rs = recovery_;
  if (!rs || rs->phase != 1 || resp.req_id != rs->req_id) return;
  auto& entries = rs->union_entries[resp.pg];
  for (const InventoryEntry& e : resp.entries) {
    entries.emplace(e.lsn, e);
  }
  rs->floor = std::max(rs->floor, resp.vdl_hint);
  rs->inventory_acks[resp.pg].insert(resp.replica);

  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->inventory_acks[pg].size() <
        static_cast<size_t>(options_.quorum.read_quorum)) {
      return;  // still waiting
    }
  }
  loop_->Cancel(rs->retry_event);
  rs->phase = 2;
  RecoveryComputeAndTruncate(rs);
}

void Database::RecoveryComputeAndTruncate(std::shared_ptr<RecoveryState> rs) {
  // Walk the volume-wide backlink chain from the durable floor (the
  // highest VDL hint any segment holds: everything at or below it once
  // reached a write quorum, so it is both complete and durable). Every
  // record above the floor that survives on any responder is in the union;
  // the walk ends at the first hole — which is visible because each
  // record's vprev names its exact predecessor. The VCL is the end of the
  // walk and the VDL the highest CPL on it (§4.1/§4.3). The floor itself
  // is a CPL by construction (it was a VDL).
  // Records inside a previously annulled range (above a recorded truncation
  // point, within the dead incarnation's LAL window) may survive on replicas
  // that missed the truncate quorum and later resurface via gossip. They
  // belong to a fenced epoch and must never rejoin the chain.
  auto annulled = [this](Lsn lsn) {
    for (const auto& tr : control_plane_->truncations()) {
      if (lsn > tr.above && lsn <= tr.above + options_.lal) return true;
    }
    return false;
  };
  std::map<Lsn, const InventoryEntry*> by_vprev;
  for (const auto& [pg, entries] : rs->union_entries) {
    for (const auto& [lsn, e] : entries) {
      if (lsn > rs->floor && !annulled(lsn)) by_vprev[e.vprev] = &e;
    }
  }
  Lsn vcl = rs->floor;
  Lsn vdl = rs->floor;
  auto it = by_vprev.find(vcl);
  while (it != by_vprev.end()) {
    vcl = it->second->lsn;
    if (it->second->flags & kFlagCpl) vdl = vcl;
    it = by_vprev.find(vcl);
  }
  rs->new_vdl = vdl;
  vcl_ = vcl;

  // Epoch-versioned truncation (§4.3): bump the volume epoch durably, then
  // command every replica to drop records above the VDL. The annulled range
  // extends to VDL + LAL — the highest LSN the dead incarnation could ever
  // have allocated — and new LSNs start above it.
  rs->new_epoch = control_plane_->volume_epoch() + 1;
  control_plane_->set_volume_epoch(rs->new_epoch);
  control_plane_->RecordTruncation(rs->new_epoch, vdl);

  RecoveryResendTruncates(rs);
}

void Database::RecoveryResendTruncates(std::shared_ptr<RecoveryState> rs) {
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->truncate_acks[pg].size() >=
        static_cast<size_t>(options_.quorum.write_quorum)) {
      continue;
    }
    TruncateReqMsg req;
    req.req_id = rs->req_id;
    req.pg = pg;
    req.epoch = rs->new_epoch;
    req.truncate_above = rs->new_vdl;
    std::string payload;
    req.EncodeTo(&payload);
    // All six copies share one encoded request (zero-copy fan-out).
    auto body = std::make_shared<const std::string>(std::move(payload));
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId node : members.nodes) {
      network_->Send(node_id_, node, kMsgTruncateReq, std::string(), body);
    }
  }
  // Periodic resend until every PG has a write quorum of truncate acks.
  const uint64_t gen = generation_;
  rs->retry_event = loop_->Schedule(Millis(100), [this, gen, rs]() {
    if (gen != generation_ || recovery_ != rs || rs->phase != 2) return;
    RecoveryResendTruncates(rs);
  });
}

void Database::HandleTruncateAck(const sim::Message& msg) {
  TruncateAckMsg ack;
  if (!TruncateAckMsg::DecodeFrom(msg.payload(), &ack).ok()) return;
  auto rs = recovery_;
  if (!rs || rs->phase != 2 || ack.req_id != rs->req_id) return;
  if (ack.status_code != static_cast<uint8_t>(Status::Code::kOk)) return;
  rs->truncate_acks[ack.pg].insert(ack.replica);
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->truncate_acks[pg].size() <
        static_cast<size_t>(options_.quorum.write_quorum)) {
      return;
    }
  }
  loop_->Cancel(rs->retry_event);
  rs->phase = 3;
  RecoveryFinish(rs);
}

void Database::RecoveryFinish(std::shared_ptr<RecoveryState> rs) {
  // Rebuild the runtime state the paper describes (§4.2.1): watermarks,
  // per-PG backlink tails, and an LSN allocator starting above the annulled
  // range.
  volume_epoch_ = rs->new_epoch;
  vdl_ = rs->new_vdl;
  vcl_ = std::max(vcl_, vdl_);
  max_allocated_ = vdl_;
  last_vol_lsn_ = vdl_;
  next_lsn_ = vdl_ + options_.lal + 1;
  lal_gap_top_ = vdl_ + options_.lal;
  // Transaction ids are namespaced by volume epoch so a new incarnation
  // can never collide with unpurged undo/txn-table rows of a previous one.
  next_txn_ = (volume_epoch_ << 40) + 1;
  for (const auto& [pg, entries] : rs->union_entries) {
    Lsn tail = kInvalidLsn;
    for (const auto& [lsn, e] : entries) {
      if (lsn <= vdl_) tail = std::max(tail, lsn);
    }
    last_lsn_per_pg_[pg] = tail;
  }
  // Replica SCL knowledge restarts empty; reads will discover it. Open for
  // business, then fetch the system catalog and run undo in background.
  auto attempt = [this]() -> Status { return EnsureSystemTrees(); };
  restarts_.Run(attempt, [this, rs](Status s) {
    recovery_.reset();
    if (!s.ok()) {
      rs->done(s);
      return;
    }
    open_ = true;
    ScheduleTimers();
    rs->done(Status::OK());
    StartBackgroundUndo();
  });
}

Status Database::EnsureSystemTrees() {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  pool_.Pin(meta_page_id_);
  Slice v;
  PageId anchor;
  uint32_t version;
  if (!(*meta)->GetRecord(kTxnTableName, &v) ||
      !DecodeCatalogValue(v, &anchor, &version)) {
    return Status::Corruption("transaction table missing from catalog");
  }
  txn_table_ = std::make_unique<BTree>(this, anchor);
  if (!(*meta)->GetRecord(kUndoTreeName, &v) ||
      !DecodeCatalogValue(v, &anchor, &version)) {
    return Status::Corruption("undo tree missing from catalog");
  }
  undo_tree_ = std::make_unique<BTree>(this, anchor);
  return Status::OK();
}

void Database::StartBackgroundUndo() {
  // §4.3: "undo recovery can happen when the database is online". Scan the
  // transaction table for in-flight (ACTIVE) transactions and roll each
  // back through its durable undo records.
  auto actives = std::make_shared<std::vector<TxnId>>();
  auto scan_attempt = [this, actives]() -> Status {
    actives->clear();
    std::vector<std::pair<std::string, std::string>> rows;
    Status s = txn_table_->Scan("t", 100000, &rows);
    if (!s.ok()) return s;
    for (const auto& [k, v] : rows) {
      if (k.size() != 9 || k[0] != 't') continue;
      TxnId id = 0;
      for (int i = 1; i <= 8; ++i) {
        id = (id << 8) | static_cast<unsigned char>(k[i]);
      }
      next_txn_ = std::max(next_txn_, id + 1);
      if (v.size() == 1 &&
          static_cast<TxnState>(v[0]) == TxnState::kActive) {
        actives->push_back(id);
      } else {
        // Committed/aborted rows that the previous incarnation had not yet
        // purged: clean them up in the background.
        purge_queue_.push_back(id);
      }
    }
    return Status::OK();
  };
  restarts_.Run(scan_attempt, [this, actives](Status s) {
    if (!s.ok()) {
      AURORA_WARN("background undo scan failed: %s", s.ToString().c_str());
      if (undo_complete_cb_) undo_complete_cb_();
      return;
    }
    UndoNextRecoveredTxn(actives, 0);
  });
}

void Database::UndoNextRecoveredTxn(
    std::shared_ptr<std::vector<TxnId>> actives, size_t idx) {
  if (idx >= actives->size()) {
    if (undo_complete_cb_) undo_complete_cb_();
    return;
  }
  TxnId id = (*actives)[idx];
  next_txn_ = std::max(next_txn_, id + 1);
  // Reconstruct the in-memory undo mirror from the durable undo tree.
  auto txn = std::make_unique<Txn>();
  txn->id = id;
  txn->durably_registered = true;
  Txn* raw = txn.get();
  txns_[id] = std::move(txn);
  auto load_attempt = [this, raw, id]() -> Status {
    raw->undo.clear();
    std::vector<std::pair<std::string, std::string>> rows;
    Status s = undo_tree_->Scan(UndoKey(id, 0), 100000, &rows);
    if (!s.ok()) return s;
    std::string prefix = UndoKey(id, 0).substr(0, 9);
    uint64_t seq = 0;
    for (const auto& [k, v] : rows) {
      if (k.compare(0, prefix.size(), prefix) != 0) break;
      PageId table = kInvalidPage;
      std::string key, old_value;
      bool had_old = false;
      s = DecodeUndoValue(v, &table, &key, &had_old, &old_value);
      if (!s.ok()) return s;
      raw->undo.push_back({seq++, table, key, had_old, std::move(old_value)});
    }
    raw->next_undo_seq = seq;
    return Status::OK();
  };
  restarts_.Run(load_attempt, [this, actives, idx, id](Status s) {
    Txn* t = FindTxn(id);
    if (!s.ok() || t == nullptr) {
      UndoNextRecoveredTxn(actives, idx + 1);
      return;
    }
    RollbackInternal(t, [this, actives, idx](Status) {
      UndoNextRecoveredTxn(actives, idx + 1);
    });
  });
}

}  // namespace aurora
