#include "baseline/mirrored_mysql.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "log/applicator.h"
#include "storage/wire.h"

namespace aurora::baseline {

namespace {

constexpr char kNextPageKey[] = "next_page";
// Free-list entries on meta page 0: "free:" + fixed64 page id (same layout
// as the Aurora engine's allocator).
constexpr char kFreePagePrefix[] = "free:";
constexpr size_t kFreePagePrefixLen = 5;

std::string WalKey(uint64_t seq) {
  char buf[32];
  snprintf(buf, sizeof(buf), "wal/%018llu",
           static_cast<unsigned long long>(seq));
  return buf;
}

std::string PageKey(PageId id) {
  char buf[32];
  snprintf(buf, sizeof(buf), "page/%018llu",
           static_cast<unsigned long long>(id));
  return buf;
}

// Standby ship wire format: varint chain-op id | lp key | lp bytes.
std::string EncodeShip(uint64_t id, const Slice& key, const Slice& bytes) {
  std::string out;
  PutVarint64(&out, id);
  PutLengthPrefixedSlice(&out, key);
  PutLengthPrefixedSlice(&out, bytes);
  return out;
}

bool DecodeShip(Slice in, uint64_t* id, Slice* key, Slice* bytes) {
  return GetVarint64(&in, id) && GetLengthPrefixedSlice(&in, key) &&
         GetLengthPrefixedSlice(&in, bytes);
}

}  // namespace

MirroredMySql::MirroredMySql(sim::EventLoop* loop, sim::Network* network,
                             sim::NodeId node_id, sim::Instance* instance,
                             SimS3* s3, const NodeSet& nodes,
                             sim::DiskOptions ebs_disk,
                             MirroredMysqlOptions options, Random rng)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      instance_(instance),
      s3_(s3),
      nodes_(nodes),
      options_(options),
      rng_(rng),
      pool_(options.engine.buffer_pool_pages, options.engine.page_size,
            &infinite_vdl_),
      locks_(loop, options.engine.lock_timeout) {
  primary_ebs_ = std::make_unique<EbsVolume>(
      loop, network, nodes.primary_ebs, nodes.primary_ebs_mirror, ebs_disk,
      rng_.Fork());
  standby_ebs_ = std::make_unique<EbsVolume>(
      loop, network, nodes.standby_ebs, nodes.standby_ebs_mirror, ebs_disk,
      rng_.Fork());
  pool_.set_evict_filter([this](PageId id, const Page&) {
    return dirty_since_.count(id) == 0;  // dirty pages may not be dropped
  });
  network_->Register(node_id_,
                     [this](const sim::Message& m) { HandleMessage(m); });
  network_->Register(nodes_.standby, [this](const sim::Message& m) {
    // The standby instance relays writes onto its own mirrored EBS volume
    // (Figure 2 steps 3-5) and consumes that volume's acknowledgements.
    if (m.type == kMsgEbsWriteAck || m.type == kMsgEbsReadResp) {
      standby_ebs_->HandleClientSide(m);
      return;
    }
    if (m.type != kMsgStandbyShip) return;
    uint64_t id;
    Slice key, bytes;
    if (!DecodeShip(m.payload(), &id, &key, &bytes)) return;
    standby_ebs_->Write(nodes_.standby, key.ToString(), bytes.ToString(),
                        [this, id](Status) {
                          std::string ack;
                          PutVarint64(&ack, id);
                          network_->Send(nodes_.standby, node_id_,
                                         kMsgStandbyAck, std::move(ack));
                        });
  });
}

MirroredMySql::~MirroredMySql() = default;

void MirroredMySql::HandleMessage(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgEbsWriteAck:
    case kMsgEbsReadResp:
      // Route to whichever volume issued the op (op ids are per-volume;
      // dispatch by sender).
      if (msg.from == nodes_.primary_ebs) {
        primary_ebs_->HandleClientSide(msg);
      } else if (msg.from == nodes_.standby_ebs) {
        standby_ebs_->HandleClientSide(msg);
      }
      break;
    case kMsgStandbyAck: {
      Slice in(msg.payload());
      uint64_t id;
      if (!GetVarint64(&in, &id)) return;
      auto it = chain_ops_.find(id);
      if (it == chain_ops_.end()) return;
      auto done = std::move(it->second.done);
      chain_ops_.erase(it);
      if (done) done(Status::OK());
      break;
    }
    default:
      break;
  }
}

void MirroredMySql::ChainWrite(const std::string& key, std::string bytes,
                               std::function<void(Status)> done) {
  uint64_t id = next_chain_++;
  ChainOp op;
  op.key = key;
  op.bytes = std::move(bytes);
  op.done = std::move(done);
  const ChainOp& stored = (chain_ops_[id] = std::move(op));
  // Steps 1-2: primary EBS + mirror (synchronous inside EbsVolume); then
  // step 3: ship to the standby, whose ack (after steps 4-5) completes the
  // chain. The payload lives in chain_ops_ until the chain finishes.
  primary_ebs_->Write(node_id_, stored.key, stored.bytes,
                      [this, id](Status s) {
                        auto it = chain_ops_.find(id);
                        if (it == chain_ops_.end()) return;
                        if (!s.ok()) {
                          auto done = std::move(it->second.done);
                          chain_ops_.erase(it);
                          if (done) done(s);
                          return;
                        }
                        network_->Send(node_id_, nodes_.standby,
                                       kMsgStandbyShip,
                                       EncodeShip(id, it->second.key,
                                                  it->second.bytes));
                      });
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

Status MirroredMySql::CommitMtr(MiniTransaction* mtr) {
  auto& records = mtr->records();
  const auto& pages = mtr->pages();
  if (records.empty()) return Status::OK();
  for (size_t i = 0; i < records.size(); ++i) {
    LogRecord& rec = records[i];
    if (i + 1 == records.size()) rec.flags |= kFlagCpl;
    rec.lsn = next_lsn_;
    rec.prev_vol_lsn = last_vol_lsn_;
    last_vol_lsn_ = rec.lsn;
    next_lsn_ += rec.EncodedSize();
    pages[i]->set_page_lsn(rec.lsn);
    dirty_since_.try_emplace(rec.page_id, rec.lsn);
    wal_buffer_.push_back(rec);
  }
  mtr->set_commit_lsn(records.back().lsn);
  return Status::OK();
}

void MirroredMySql::StartWalFlush() {
  if (wal_flush_in_flight_) return;
  if (wal_buffer_.empty()) {
    // Everything already durable; complete any waiters.
    FinishWalFlush(flushed_lsn_);
    return;
  }
  wal_flush_in_flight_ = true;
  std::vector<LogRecord> flushing = std::move(wal_buffer_);
  wal_buffer_.clear();
  Lsn through = flushing.back().lsn;
  std::string blob;
  EncodeRecordBatch(flushing, &blob);
  ++stats_.wal_flushes;
  stats_.wal_bytes += blob.size();
  uint64_t seq = next_wal_seq_++;
  wal_last_lsn_[seq] = through;
  ChainWrite(WalKey(seq), std::move(blob), [this, through](Status s) {
    wal_flush_in_flight_ = false;
    if (s.ok()) FinishWalFlush(through);
  });
}

void MirroredMySql::FinishWalFlush(Lsn flushed_through) {
  if (flushed_through > flushed_lsn_) flushed_lsn_ = flushed_through;
  // Gather the binlog of every commit this flush hardened; it must also be
  // durable (second synchronous chain) before the commits are acked.
  std::vector<CommitWaiter> ready;
  std::string binlog_blob;
  auto it = commit_waiters_.begin();
  while (it != commit_waiters_.end()) {
    if (ready.size() >= options_.group_commit_max) break;
    if (it->lsn > flushed_lsn_) {
      ++it;
      continue;
    }
    Txn* t = FindTxn(it->txn);
    if (t != nullptr && options_.binlog && !t->binlog.empty()) {
      binlog_blob += t->binlog;
    }
    ready.push_back(std::move(*it));
    it = commit_waiters_.erase(it);
  }
  if (ready.empty()) {
    if (!wal_buffer_.empty() || !commit_waiters_.empty()) StartWalFlush();
    return;
  }
  auto complete = [this, ready = std::move(ready)](Status s) mutable {
    for (CommitWaiter& w : ready) {
      Txn* t = FindTxn(w.txn);
      if (t != nullptr) {
        // Ship the binlog to attached replicas (asynchronous, post-commit —
        // classic MySQL replication) and archive to S3 for PITR.
        if (!t->binlog.empty()) {
          std::string event;
          PutVarint64(&event, w.requested_at);
          event += t->binlog;
          for (sim::NodeId node : binlog_replicas_) {
            network_->Send(node_id_, node, kMsgBinlogShip, event);
          }
        }
        locks_.ReleaseAll(w.txn);
        txns_.erase(w.txn);
      }
      ++stats_.txns_committed;
      stats_.commit_latency_us.Record(loop_->now() - w.requested_at);
      if (w.done) w.done(s);
    }
    if (!wal_buffer_.empty() || !commit_waiters_.empty()) StartWalFlush();
  };
  if (options_.binlog && !binlog_blob.empty()) {
    ++stats_.binlog_writes;
    char key[40];
    snprintf(key, sizeof(key), "binlog/%018llu",
             static_cast<unsigned long long>(next_binlog_seq_++));
    std::string for_s3 = binlog_blob;
    ChainWrite(key, std::move(binlog_blob),
               [this, key = std::string(key), for_s3 = std::move(for_s3),
                complete = std::move(complete)](Status s) mutable {
                 if (s3_ != nullptr) {
                   s3_->Put("binlog-archive/" + key, std::move(for_s3),
                            [](Status) {});
                 }
                 complete(s);
               });
  } else {
    complete(Status::OK());
  }
}

// ---------------------------------------------------------------------------
// Checkpointing (dirty-page write-back with double-write)
// ---------------------------------------------------------------------------

void MirroredMySql::CheckpointTick() {
  const uint64_t gen = generation_;
  checkpoint_timer_ = loop_->Schedule(options_.checkpoint_interval,
                                      [this, gen] {
    if (gen == generation_ && open_) CheckpointTick();
  });
  if (checkpointing_ || dirty_since_.empty()) return;
  checkpointing_ = true;
  ++stats_.checkpoints;
  // Adaptive flushing (InnoDB-style): under write pressure the flusher must
  // keep pace with the dirtying rate or the pool fills with unflushable
  // pages. Scale the batch with the backlog.
  size_t adaptive_batch =
      std::max(options_.checkpoint_batch_pages, dirty_since_.size() / 2);

  // Flush-eligible pages: resident, with all changes WAL-hardened.
  struct Capture {
    PageId id;
    std::string bytes;
    Lsn captured_lsn;
  };
  auto batch = std::make_shared<std::vector<Capture>>();
  for (const auto& [id, first_dirty] : dirty_since_) {
    if (batch->size() >= adaptive_batch) break;
    Page* page = pool_.Lookup(id);
    if (page == nullptr) continue;
    if (page->page_lsn() > flushed_lsn_) continue;  // WAL-before-data
    page->UpdateCrc();
    batch->push_back({id, page->raw(), page->page_lsn()});
  }
  if (batch->empty()) {
    checkpointing_ = false;
    StartWalFlush();  // push the WAL so pages become eligible next tick
    return;
  }

  auto write_pages = [this, batch](Status dwb_status) {
    if (!dwb_status.ok()) {
      checkpointing_ = false;
      return;
    }
    auto remaining = std::make_shared<size_t>(batch->size());
    for (const Capture& cap : *batch) {
      PageId id = cap.id;
      Lsn captured = cap.captured_lsn;
      ++stats_.page_writes;
      ChainWrite(PageKey(id), cap.bytes,
                 [this, id, captured, batch, remaining](Status s) {
        if (s.ok()) {
          // Un-dirty only if the page is exactly the image we flushed; a
          // concurrent modification keeps it dirty so its delta is not
          // skipped by the next checkpoint LSN.
          Page* page = pool_.Lookup(id);
          if (page != nullptr && page->page_lsn() == captured) {
            dirty_since_.erase(id);
          }
        }
        if (--*remaining == 0) {
          // Advance and persist the checkpoint LSN.
          Lsn cp = flushed_lsn_;
          for (const auto& [pid, since] : dirty_since_) {
            cp = std::min(cp, since > 0 ? since - 1 : 0);
          }
          checkpoint_lsn_ = cp;
          // First WAL object a recovery scan must read: the earliest one
          // whose records extend past the checkpoint.
          uint64_t scan_start = next_wal_seq_;
          for (const auto& [seq, last] : wal_last_lsn_) {
            if (last > cp) {
              scan_start = seq;
              break;
            }
          }
          wal_last_lsn_.erase(wal_last_lsn_.begin(),
                              wal_last_lsn_.lower_bound(scan_start));
          std::string meta;
          PutVarint64(&meta, checkpoint_lsn_);
          PutVarint64(&meta, scan_start);
          ChainWrite("meta/checkpoint", std::move(meta), [this](Status) {
            checkpointing_ = false;
          });
        }
      });
    }
  };

  if (options_.double_write) {
    // One aggregated double-write-buffer write preceding the page writes
    // (torn-page protection — more bytes down the same synchronous chains).
    std::string dwb;
    for (const Capture& cap : *batch) dwb += cap.bytes;
    ++stats_.dwb_writes;
    ChainWrite("dwb", std::move(dwb), write_pages);
  } else {
    write_pages(Status::OK());
  }
}

void MirroredMySql::FlushOnePage(PageId id, std::function<void(Status)> done) {
  Page* page = pool_.Lookup(id);
  if (page == nullptr || dirty_since_.count(id) == 0) {
    done(Status::OK());
    return;
  }
  if (page->page_lsn() > flushed_lsn_) {
    // WAL-before-data: harden the log first, then retry.
    StartWalFlush();
    const uint64_t gen = generation_;
    // NOLINTNEXTLINE(aurora-C2): one-shot 1ms generation-guarded retry; many page flushes defer concurrently, so no single member could hold the id, and the guard makes a post-crash firing a no-op
    loop_->Schedule(Millis(1), [this, gen, id, done = std::move(done)] {
      if (gen != generation_) return;
      FlushOnePage(id, done);
    });
    return;
  }
  page->UpdateCrc();
  std::string bytes = page->raw();
  Lsn captured = page->page_lsn();
  auto after_dwb = [this, id, bytes, captured,
                    done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    ++stats_.page_writes;
    ChainWrite(PageKey(id), bytes, [this, id, captured, done](Status ps) {
      if (ps.ok()) {
        Page* page = pool_.Lookup(id);
        if (page != nullptr && page->page_lsn() == captured) {
          dirty_since_.erase(id);
        }
      }
      done(ps);
    });
  };
  if (options_.double_write) {
    ++stats_.dwb_writes;
    ChainWrite("dwb", bytes, std::move(after_dwb));
  } else {
    after_dwb(Status::OK());
  }
}

// ---------------------------------------------------------------------------
// PageProvider
// ---------------------------------------------------------------------------

Result<Page*> MirroredMySql::GetPage(PageId id) {
  Page* page = pool_.Lookup(id);
  if (page != nullptr) return page;
  restarts_.NoteMiss(id);
  if (fetch_in_flight_.insert(id).second) {
    ++stats_.page_reads;
    auto finish_fetch = [this, id]() {
      primary_ebs_->Read(
          node_id_, PageKey(id), [this, id](Result<std::string> r) {
            Page page(options_.engine.page_size);
            if (r.ok()) {
              (void)page.LoadRaw(*r);
            } else if (synthesizer_) {
              // Pre-loaded (synthetic) table page.
              synthesizer_(id, &page);
            }
            // Otherwise the page exists only as WAL (recovery replay);
            // an unformatted frame is installed for redo to format.
            fetch_in_flight_.erase(id);
            pool_.Install(id, std::move(page));
            restarts_.PageInstalled(id);
          });
    };
    // The §1 cache-miss penalty: when the pool is saturated with dirty
    // pages, the miss must first flush a victim before it can be served.
    if (pool_.size() >= pool_.capacity() &&
        dirty_since_.size() >= pool_.capacity() / 2 &&
        !dirty_since_.empty()) {
      ++stats_.dirty_evict_stalls;
      PageId victim = dirty_since_.begin()->first;
      FlushOnePage(victim, [finish_fetch](Status) { finish_fetch(); });
    } else {
      finish_fetch();
    }
  }
  return Status::Busy("page miss");
}

Result<Page*> MirroredMySql::AllocatePage(PageType type, uint8_t level,
                                          MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) return meta.status();
  // Reuse a freed page before growing the page space.
  int slot = (*meta)->LowerBound(kFreePagePrefix);
  if (slot < (*meta)->slot_count()) {
    Slice k = (*meta)->KeyAt(slot);
    if (k.size() == kFreePagePrefixLen + 8 && k.starts_with(kFreePagePrefix)) {
      const PageId id = DecodeFixed64(k.data() + kFreePagePrefixLen);
      LogRecord del;
      del.page_id = 0;
      del.op = RedoOp::kDelete;
      del.payload = LogRecord::MakeKeyPayload(k);
      Status s = mtr->Apply(*meta, std::move(del));
      if (!s.ok()) return s;
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
  }
  Slice v;
  if (!(*meta)->GetRecord(kNextPageKey, &v) || v.size() != 8) {
    return Status::Corruption("allocator record missing");
  }
  PageId id = DecodeFixed64(v.data());
  std::string next;
  PutFixed64(&next, id + 1);
  LogRecord upd;
  upd.page_id = 0;
  upd.op = RedoOp::kUpdate;
  upd.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
  Status s = mtr->Apply(*meta, std::move(upd));
  if (!s.ok()) return s;
  Page* page = pool_.InstallNew(id);
  LogRecord fmt;
  fmt.page_id = id;
  fmt.op = RedoOp::kFormatPage;
  fmt.payload = LogRecord::MakeFormatPayload(static_cast<uint8_t>(type), level);
  s = mtr->Apply(page, std::move(fmt));
  if (!s.ok()) return s;
  return page;
}

Status MirroredMySql::FreePage(Page* page, MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) return meta.status();
  std::string key = kFreePagePrefix;
  PutFixed64(&key, page->page_id());
  // A meta page with no room only costs the reuse of this one id.
  if ((*meta)->HasRoomFor(key.size(), 0)) {
    LogRecord rec;
    rec.page_id = 0;
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
  return mtr->Apply(page, std::move(fmt));
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void MirroredMySql::Bootstrap(std::function<void(Status)> done) {
  MiniTransaction mtr(kInvalidTxn);
  Page* meta = pool_.InstallNew(0);
  LogRecord fmt;
  fmt.page_id = 0;
  fmt.op = RedoOp::kFormatPage;
  fmt.payload =
      LogRecord::MakeFormatPayload(static_cast<uint8_t>(PageType::kMeta), 0);
  AURORA_CHECK(mtr.Apply(meta, std::move(fmt)).ok(), "meta format failed");
  std::string next;
  PutFixed64(&next, 1);
  LogRecord ins;
  ins.page_id = 0;
  ins.op = RedoOp::kInsert;
  ins.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
  AURORA_CHECK(mtr.Apply(meta, std::move(ins)).ok(), "meta init failed");
  pool_.Pin(0);
  Status s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "bootstrap commit failed");
  commit_waiters_.push_back(
      {kInvalidTxn, mtr.commit_lsn(),
       [this, done](Status fs) {
         open_ = true;
         CheckpointTick();
         done(fs);
       },
       loop_->now()});
  StartWalFlush();
}

void MirroredMySql::Crash() {
  ++generation_;
  open_ = false;
  loop_->Cancel(checkpoint_timer_);
  pool_.Clear();
  locks_.Reset();
  txns_.clear();
  wal_buffer_.clear();
  wal_flush_in_flight_ = false;
  commit_waiters_.clear();
  chain_ops_.clear();
  dirty_since_.clear();
  restarts_.Clear();
  fetch_in_flight_.clear();
}

void MirroredMySql::Recover(std::function<void(Status)> done) {
  Crash();
  ++generation_;
  // ARIES redo pass: start from the most recent checkpoint and replay the
  // log (§4.3 describes why this is slow: it is synchronous, offline, and
  // proportional to the log written since the checkpoint).
  primary_ebs_->Read(
      node_id_, "meta/checkpoint",
      [this, done = std::move(done)](Result<std::string> meta) {
        Lsn checkpoint = kInvalidLsn;
        uint64_t wal_floor = 1;
        if (meta.ok()) {
          Slice in(*meta);
          GetVarint64(&in, &checkpoint);
          GetVarint64(&in, &wal_floor);
        }
        checkpoint_lsn_ = checkpoint;
        // Scan the log forward from the checkpoint: each WAL object is a
        // real (latency-bearing) EBS read — log reads are part of the
        // recovery cost a traditional engine pays.
        std::vector<std::string> all_keys = primary_ebs_->ListKeys("wal/");
        // Skip WAL objects wholly covered by the checkpoint.
        std::string first_key = WalKey(wal_floor);
        auto keys = std::make_shared<std::vector<std::string>>();
        for (std::string& k : all_keys) {
          if (k >= first_key) keys->push_back(std::move(k));
        }
        auto records = std::make_shared<std::vector<LogRecord>>();
        // Weak self-reference: each in-flight EBS read holds the strong one
        // (same idiom as FinishRollback), so the chain frees itself when the
        // scan completes instead of cycling forever.
        auto read_next = std::make_shared<std::function<void(size_t)>>();
        std::weak_ptr<std::function<void(size_t)>> weak_next = read_next;
        *read_next = [this, keys, records, checkpoint, wal_floor, weak_next,
                      done](size_t i) {
          if (i < keys->size()) {
            primary_ebs_->Read(
                node_id_, (*keys)[i],
                [this, keys, records, checkpoint, wal_floor,
                 next = weak_next.lock(), done,
                 i](Result<std::string> blob) {
                  if (blob.ok()) {
                    std::vector<LogRecord> batch;
                    if (DecodeRecordBatch(*blob, &batch).ok()) {
                      for (LogRecord& r : batch) {
                        if (r.lsn > checkpoint) {
                          records->push_back(std::move(r));
                        }
                      }
                    }
                  }
                  if (next) (*next)(i + 1);
                });
            return;
          }
          std::sort(records->begin(), records->end(),
                    [](const LogRecord& a, const LogRecord& b) {
                      return a.lsn < b.lsn;
                    });
          if (!records->empty()) {
            next_lsn_ = records->back().lsn + records->back().EncodedSize();
            flushed_lsn_ = records->back().lsn;
            last_vol_lsn_ = records->back().lsn;
          } else {
            next_lsn_ = std::max<Lsn>(checkpoint + 1, 1);
            flushed_lsn_ = checkpoint;
            last_vol_lsn_ = checkpoint;
          }
          next_wal_seq_ =
              std::max<uint64_t>(next_wal_seq_, wal_floor + 1000000);
          ReplayWal(records, 0, done);
        };
        (*read_next)(0);
      });
}

void MirroredMySql::ReplayWal(std::shared_ptr<std::vector<LogRecord>> records,
                              size_t idx, std::function<void(Status)> done) {
  // Sequential, synchronous redo: fetch the page (a real EBS read on every
  // first touch), apply — charging CPU per record — and continue. This is
  // the foreground, offline recovery Aurora eliminates: its cost is
  // proportional to the log written since the last checkpoint.
  constexpr size_t kChunk = 16;
  size_t end = std::min(records->size(), idx + kChunk);
  while (idx < end) {
    const LogRecord& rec = (*records)[idx];
    Result<Page*> page = GetPage(rec.page_id);
    if (!page.ok()) {
      // Busy: wait for the fetch, then resume from this index.
      restarts_.Park(rec.page_id, [this, records, idx, done](Status) {
        ReplayWal(records, idx, done);
      });
      return;
    }
    Status s = LogApplicator::Apply(rec, *page);
    if (!s.ok()) {
      done(s);
      return;
    }
    dirty_since_.try_emplace(rec.page_id, rec.lsn);
    ++idx;
  }
  if (idx < records->size()) {
    instance_->Execute(
        options_.engine.cpu_per_page_touch * kChunk,
        [this, records, idx, done]() { ReplayWal(records, idx, done); });
    return;
  }
  pool_.Pin(0);
  open_ = true;
  CheckpointTick();
  done(Status::OK());
}

// ---------------------------------------------------------------------------
// Schema & transactions
// ---------------------------------------------------------------------------

void MirroredMySql::FlushLruVictim() {
  // Free-page pressure: when the pool is over capacity and clogged with
  // dirty pages, InnoDB's LRU flusher must write one back before anything
  // can be evicted — the §1 "evicting and flushing a dirty cache page"
  // penalty.
  if (open_ && pool_.size() > pool_.capacity() && !dirty_since_.empty() &&
      !lru_flush_in_flight_) {
    ++stats_.dirty_evict_stalls;
    lru_flush_in_flight_ = true;
    FlushOnePage(dirty_since_.begin()->first, [this](Status) {
      lru_flush_in_flight_ = false;
      pool_.EvictExcess();
    });
  }
}

void MirroredMySql::CreateTable(const std::string& name,
                                std::function<void(Status)> done) {
  std::string cat_key = "tbl:" + name;
  auto commit_lsn = std::make_shared<Lsn>(kInvalidLsn);
  auto attempt = [this, cat_key, commit_lsn]() -> Status {
    Result<Page*> meta = GetPage(0);
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
    std::string value;
    PutFixed64(&value, *anchor);
    LogRecord rec;
    rec.page_id = 0;
    rec.op = RedoOp::kInsert;
    rec.payload = LogRecord::MakeKeyValuePayload(cat_key, value);
    Status s = mtr.Apply(*meta, std::move(rec));
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    s = CommitMtr(&mtr);
    if (!s.ok()) return s;
    *commit_lsn = mtr.commit_lsn();
    return Status::OK();
  };
  restarts_.Run(attempt, [this, done, commit_lsn](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    commit_waiters_.push_back({kInvalidTxn, *commit_lsn, done, loop_->now()});
    StartWalFlush();
  });
}

void MirroredMySql::AttachPreloadedTable(
    const std::string& name, std::function<uint64_t(PageId)> plan,
    std::function<void(Result<PageId>)> done) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) {
    done(meta.status());
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

  MiniTransaction mtr(kInvalidTxn);
  std::string next;
  PutFixed64(&next, first + count);
  LogRecord upd;
  upd.page_id = 0;
  upd.op = RedoOp::kUpdate;
  upd.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
  Status s = mtr.Apply(*meta, std::move(upd));
  AURORA_CHECK(s.ok(), "attach alloc failed");
  std::string value;
  PutFixed64(&value, first);
  LogRecord ins;
  ins.page_id = 0;
  ins.op = RedoOp::kInsert;
  ins.payload = LogRecord::MakeKeyValuePayload(cat_key, value);
  s = mtr.Apply(*meta, std::move(ins));
  AURORA_CHECK(s.ok(), "attach catalog failed");
  s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "attach commit failed");
  commit_waiters_.push_back({kInvalidTxn, mtr.commit_lsn(),
                             [done, first](Status fs) {
                               if (fs.ok()) {
                                 done(first);
                               } else {
                                 done(fs);
                               }
                             },
                             loop_->now()});
  StartWalFlush();
}

Result<PageId> MirroredMySql::TableAnchor(const std::string& name) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) return meta.status();
  Slice v;
  if (!(*meta)->GetRecord("tbl:" + name, &v) || v.size() != 8) {
    return Status::NotFound("no such table");
  }
  return static_cast<PageId>(DecodeFixed64(v.data()));
}

TxnId MirroredMySql::Begin() {
  TxnId id = next_txn_++;
  auto txn = std::make_unique<Txn>();
  txn->id = id;
  txns_[id] = std::move(txn);
  return id;
}

MirroredMySql::Txn* MirroredMySql::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

SimDuration MirroredMySql::StatementCpuCost() const {
  double extra = options_.cpu_contention_per_connection_us *
                 static_cast<double>(options_.active_connections);
  return options_.engine.cpu_per_statement +
         static_cast<SimDuration>(extra);
}

Status MirroredMySql::WriteRowAttempt(Txn* txn, PageId table,
                                      const std::string& key,
                                      const std::string* value) {
  BTree tree(this, table);
  std::string old;
  Status s = tree.Get(key, &old);
  bool had_old;
  if (s.ok()) {
    had_old = true;
  } else if (s.IsNotFound()) {
    had_old = false;
  } else {
    return s;
  }
  if (value == nullptr && !had_old) return Status::NotFound("no such row");

  MiniTransaction mtr(txn->id);
  if (value != nullptr) {
    s = had_old ? tree.Update(key, *value, &mtr)
                : tree.Insert(key, *value, &mtr);
  } else {
    s = tree.Delete(key, &mtr);
  }
  if (!s.ok()) {
    mtr.Abort();
    return s;
  }
  s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "CommitMtr failed");
  txn->commit_lsn = mtr.commit_lsn();
  txn->undo.push_back({table, key, had_old, std::move(old)});
  // Binlog (statement) event.
  if (options_.binlog) {
    txn->binlog.push_back(value != nullptr ? 'P' : 'D');
    PutVarint64(&txn->binlog, table);
    PutLengthPrefixedSlice(&txn->binlog, key);
    PutLengthPrefixedSlice(&txn->binlog, value != nullptr ? *value : "");
  }
  return Status::OK();
}

void MirroredMySql::Put(TxnId txn, PageId table, const std::string& key,
                        const std::string& value,
                        std::function<void(Status)> done) {
  if (!open_) {
    done(Status::Unavailable("database not open"));
    return;
  }
  Txn* t = FindTxn(txn);
  if (t == nullptr || !t->active) {
    done(Status::Aborted("transaction not active"));
    return;
  }
  ++stats_.writes;
  SimTime started = loop_->now();
  instance_->Execute(StatementCpuCost(), [this, txn, table, key, value, done,
                                          started]() {
    auto with_lock = [this, txn, table, key, value, done,
                      started](Status ls) {
      if (!ls.ok()) {
        Txn* t = FindTxn(txn);
        if (t != nullptr) {
          FinishRollback(t, [done, ls](Status) { done(ls); });
        } else {
          done(ls);
        }
        return;
      }
      auto attempt = [this, txn, table, key, value]() -> Status {
        Txn* t = FindTxn(txn);
        if (t == nullptr || !t->active) return Status::Aborted("gone");
        return WriteRowAttempt(t, table, key, &value);
      };
      restarts_.Run(attempt, [this, done, started](Status s) {
        stats_.write_latency_us.Record(loop_->now() - started);
        done(s);
      });
    };
    Status s = locks_.Lock(txn, table, key, LockMode::kExclusive, with_lock);
    if (!s.IsBusy()) with_lock(s);
  });
}

void MirroredMySql::Get(TxnId txn, PageId table, const std::string& key,
                        std::function<void(Result<std::string>)> done) {
  if (!open_) {
    done(Status::Unavailable("database not open"));
    return;
  }
  ++stats_.reads;
  SimTime started = loop_->now();
  instance_->Execute(StatementCpuCost(), [this, txn, table, key, done,
                                          started]() {
    auto with_lock = [this, table, key, done, started](Status ls) {
      if (!ls.ok()) {
        done(ls);
        return;
      }
      auto result = std::make_shared<std::string>();
      auto attempt = [this, table, key, result]() -> Status {
        BTree tree(this, table);
        return tree.Get(key, result.get());
      };
      restarts_.Run(attempt, [this, done, result, started](Status s) {
        stats_.read_latency_us.Record(loop_->now() - started);
        if (s.ok()) {
          done(std::move(*result));
        } else {
          done(s);
        }
      });
    };
    Status s = locks_.Lock(txn, table, key, LockMode::kShared, with_lock);
    if (!s.IsBusy()) with_lock(s);
  });
}

void MirroredMySql::Delete(TxnId txn, PageId table, const std::string& key,
                           std::function<void(Status)> done) {
  if (!open_) {
    done(Status::Unavailable("database not open"));
    return;
  }
  Txn* t = FindTxn(txn);
  if (t == nullptr || !t->active) {
    done(Status::Aborted("transaction not active"));
    return;
  }
  instance_->Execute(StatementCpuCost(), [this, txn, table, key, done]() {
    auto with_lock = [this, txn, table, key, done](Status ls) {
      if (!ls.ok()) {
        done(ls);
        return;
      }
      auto attempt = [this, txn, table, key]() -> Status {
        Txn* t = FindTxn(txn);
        if (t == nullptr || !t->active) return Status::Aborted("gone");
        return WriteRowAttempt(t, table, key, nullptr);
      };
      restarts_.Run(attempt, done);
    };
    Status s = locks_.Lock(txn, table, key, LockMode::kExclusive, with_lock);
    if (!s.IsBusy()) with_lock(s);
  });
}

void MirroredMySql::Commit(TxnId txn, std::function<void(Status)> done) {
  Txn* t = FindTxn(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  if (t->undo.empty()) {
    // Read-only: no log to force.
    ++stats_.txns_committed;
    stats_.commit_latency_us.Record(0);
    locks_.ReleaseAll(txn);
    txns_.erase(txn);
    done(Status::OK());
    return;
  }
  // The WAL protocol: the commit completes only after the redo (and binlog)
  // are durably on the mirrored volumes — a synchronous wait, unlike
  // Aurora's asynchronous commit queue.
  commit_waiters_.push_back({txn, t->commit_lsn, std::move(done),
                             loop_->now()});
  StartWalFlush();
}

void MirroredMySql::Rollback(TxnId txn, std::function<void(Status)> done) {
  Txn* t = FindTxn(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  FinishRollback(t, std::move(done));
}

void MirroredMySql::FinishRollback(Txn* t, std::function<void(Status)> done) {
  t->active = false;
  // In-memory undo (the baseline does not persist undo; see DESIGN.md).
  // The stored callback refers to itself weakly; each continuation passed to
  // restarts_.Run holds the strong reference that keeps the chain alive.
  // Capturing `undo_next` strongly here would make the std::function own a
  // shared_ptr to itself — a reference cycle that never frees.
  auto undo_next = std::make_shared<std::function<void(size_t)>>();
  std::weak_ptr<std::function<void(size_t)>> weak_next = undo_next;
  TxnId id = t->id;
  *undo_next = [this, id, done, weak_next](size_t remaining) {
    Txn* t = FindTxn(id);
    if (t == nullptr) {
      done(Status::OK());
      return;
    }
    if (remaining == 0) {
      locks_.ReleaseAll(id);
      txns_.erase(id);
      ++stats_.txns_aborted;
      done(Status::OK());
      return;
    }
    const Txn::UndoEntry& e = t->undo[remaining - 1];
    auto attempt = [this, e]() -> Status {
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
    // Locking here always succeeds: the caller of this lambda (either
    // FinishRollback or a previous continuation) holds a strong reference
    // for the duration of the call.
    restarts_.Run(attempt,
                  [done, next = weak_next.lock(), remaining](Status s) {
                    if (!s.ok()) {
                      done(s);
                      return;
                    }
                    if (next) (*next)(remaining - 1);
                  });
  };
  (*undo_next)(t->undo.size());
}

void MirroredMySql::AttachBinlogReplica(sim::NodeId replica_node) {
  binlog_replicas_.push_back(replica_node);
}

}  // namespace aurora::baseline
