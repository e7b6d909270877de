#include "engine/replica.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/row_codec.h"
#include "log/applicator.h"

namespace aurora {

ReadReplica::ReadReplica(sim::EventLoop* loop, sim::Network* network,
                         sim::NodeId node_id, sim::Instance* instance,
                         ControlPlane* control_plane, sim::NodeId writer_node,
                         EngineOptions options, Random rng)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      instance_(instance),
      control_plane_(control_plane),
      writer_node_(writer_node),
      options_(options),
      rng_(rng),
      pool_(options.buffer_pool_pages, options.page_size, &applied_vdl_) {
  network_->Register(node_id_,
                     [this](const sim::Message& m) { HandleMessage(m); });
  ReportReadPointTick();
}

void ReadReplica::HandleMessage(const sim::Message& msg) {
  if (crashed_) return;
  if (!network_->VerifyFrame(msg)) {
    ++stats_.corrupt_frames_dropped;
    return;
  }
  switch (msg.type) {
    case kMsgReplicaLogStream:
      HandleLogStream(msg);
      break;
    case kMsgReadPageResp:
      HandleReadPageResp(msg);
      break;
    default:
      break;
  }
}

void ReadReplica::Crash() {
  crashed_ = true;
  ++generation_;
  pool_.Clear();
  pending_stream_.clear();
  pending_commits_.clear();
  stashed_records_.clear();
  restarts_.Clear();
  fetch_in_flight_.clear();
  // Cancel outstanding fetch-retry timers and the read-point reporting tick
  // so repeated crash/restart cycles don't leak dead events in the loop.
  for (const auto& [req_id, pr] : pending_reads_) {
    loop_->Cancel(pr.timeout_event);
  }
  pending_reads_.clear();
  loop_->Cancel(read_point_timer_);
}

void ReadReplica::Restart() {
  crashed_ = false;
  ++generation_;
  ReportReadPointTick();
}

void ReadReplica::HandleLogStream(const sim::Message& msg) {
  ReplicaStreamMsg stream;
  if (!ReplicaStreamMsg::DecodeFrom(msg.payload(), &stream).ok()) return;
  if (stream.vdl > vdl_) vdl_ = stream.vdl;
  for (LogRecord& r : stream.records) {
    pending_stream_.push_back(std::move(r));
  }
  for (const auto& [lsn, time] : stream.commits) {
    pending_commits_.emplace(lsn, time);
  }
  ApplyReadyMtrs();
}

void ReadReplica::ApplyReadyMtrs() {
  // Rule (a): apply only records with LSN <= VDL. Rule (b): apply whole
  // MTRs (ending at a CPL) atomically. The stream arrives in LSN order and
  // MTRs are contiguous LSN runs, so we scan for the next CPL and apply the
  // prefix if it is below the VDL.
  while (true) {
    size_t cpl_idx = SIZE_MAX;
    for (size_t i = 0; i < pending_stream_.size(); ++i) {
      if (pending_stream_[i].is_cpl()) {
        cpl_idx = i;
        break;
      }
    }
    if (cpl_idx == SIZE_MAX) break;
    Lsn cpl = pending_stream_[cpl_idx].lsn;
    if (cpl > vdl_) break;
    // Within one event-loop turn the whole MTR applies — atomic from every
    // reader's perspective.
    for (size_t i = 0; i <= cpl_idx; ++i) {
      ApplyRecord(pending_stream_[i]);
    }
    pending_stream_.erase(pending_stream_.begin(),
                          pending_stream_.begin() + cpl_idx + 1);
    applied_vdl_ = std::max(applied_vdl_, cpl);
    ++stats_.mtrs_applied;
  }
  if (pending_stream_.empty() && vdl_ > applied_vdl_) {
    // Stream quiesced: everything durable is applied.
    applied_vdl_ = vdl_;
  }
  // Commit visibility (replica lag measurement).
  while (!pending_commits_.empty() &&
         pending_commits_.begin()->first <= applied_vdl_) {
    uint64_t writer_time = pending_commits_.begin()->second;
    pending_commits_.erase(pending_commits_.begin());
    stats_.lag_us.Record(loop_->now() >= writer_time
                             ? loop_->now() - writer_time
                             : 0);
  }
}

void ReadReplica::ApplyRecord(const LogRecord& rec) {
  if (fetch_in_flight_.count(rec.page_id)) {
    stashed_records_[rec.page_id].push_back(rec);
    return;
  }
  Page* page = pool_.Lookup(rec.page_id);
  if (page == nullptr) {
    ++stats_.records_discarded;
    return;
  }
  Status s = LogApplicator::Apply(rec, page);
  if (!s.ok()) {
    // Should not happen (deterministic redo); drop the page and let a
    // future read re-fetch a consistent image.
    AURORA_WARN("replica apply failed: %s", s.ToString().c_str());
    pool_.Discard(rec.page_id);
    return;
  }
  ++stats_.records_applied;
}

Result<Page*> ReadReplica::GetPage(PageId id) {
  Page* page = pool_.Lookup(id);
  if (page != nullptr) return page;
  restarts_.NoteMiss(id);
  StartPageFetch(id);
  return Status::Busy("page miss");
}

void ReadReplica::StartPageFetch(PageId id) {
  if (fetch_in_flight_.count(id)) return;
  uint64_t req = next_req_++;
  fetch_in_flight_[id] = req;
  PendingRead pr;
  pr.page = id;
  pr.pg = static_cast<PgId>(id / options_.pages_per_pg);
  pr.read_point = applied_vdl_;
  pending_reads_[req] = pr;
  ++stats_.storage_page_reads;
  IssuePageRead(req);
}

void ReadReplica::IssuePageRead(uint64_t req_id) {
  auto it = pending_reads_.find(req_id);
  if (it == pending_reads_.end()) return;
  PendingRead& pr = it->second;
  const PgMembership& members = control_plane_->membership(pr.pg);
  const sim::Topology* topo = control_plane_->topology();
  // Prefer same-AZ replicas; rotate through the rest on retry.
  std::vector<int> order;
  for (int i = 0; i < kReplicasPerPg; ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return topo->SameAz(node_id_, members.nodes[a]) >
           topo->SameAz(node_id_, members.nodes[b]);
  });
  sim::NodeId target = members.nodes[order[pr.attempt % order.size()]];

  ReadPageReqMsg req;
  req.req_id = req_id;
  req.pg = pr.pg;
  req.page = pr.page;
  req.read_point = pr.read_point;
  std::string payload;
  req.EncodeTo(&payload);
  network_->Send(node_id_, target, kMsgReadPageReq, std::move(payload));

  const uint64_t gen = generation_;
  pr.timeout_event =
      loop_->Schedule(options_.read_retry_timeout, [this, gen, req_id] {
        if (gen != generation_) return;
        auto it = pending_reads_.find(req_id);
        if (it == pending_reads_.end()) return;
        ++it->second.attempt;
        IssuePageRead(req_id);
      });
}

void ReadReplica::HandleReadPageResp(const sim::Message& msg) {
  ReadPageRespMsg resp;
  if (!ReadPageRespMsg::DecodeFrom(msg.payload(), &resp).ok()) return;
  auto it = pending_reads_.find(resp.req_id);
  if (it == pending_reads_.end()) return;
  PendingRead& pr = it->second;
  loop_->Cancel(pr.timeout_event);

  if (resp.status_code != static_cast<uint8_t>(Status::Code::kOk)) {
    ++pr.attempt;
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
    ++pr.attempt;
    IssuePageRead(resp.req_id);
    return;
  }
  PageId id = pr.page;
  pending_reads_.erase(it);
  fetch_in_flight_.erase(id);
  Page* installed = pool_.Install(id, std::move(*page));

  // Replay records that streamed past while the fetch was in flight
  // (idempotent: anything already in the fetched image is skipped by LSN).
  // This runs before the eviction in PageInstalled, so `installed` is
  // still resident.
  auto sit = stashed_records_.find(id);
  if (sit != stashed_records_.end()) {
    for (const LogRecord& r : sit->second) {
      Status s = LogApplicator::Apply(r, installed);
      if (!s.ok()) {
        pool_.Discard(id);
        break;
      }
    }
    stashed_records_.erase(sit);
  }
  restarts_.PageInstalled(id);
}

void ReadReplica::Get(PageId table, const std::string& key,
                      std::function<void(Result<std::string>)> done) {
  if (crashed_) {
    done(Status::Unavailable("replica down"));
    return;
  }
  ++stats_.reads;
  SimTime started = loop_->now();
  instance_->Execute(options_.cpu_per_statement, [this, table, key, done,
                                                  started]() {
    auto result = std::make_shared<std::string>();
    auto attempt = [this, table, key, result]() -> Status {
      BTree tree(this, table);
      return tree.Get(key, result.get());
    };
    restarts_.Run(attempt, [this, done, result, started](Status s) {
      stats_.read_latency_us.Record(loop_->now() - started);
      done(FinishRowRead(s, *result));
    });
  });
}

void ReadReplica::TableAnchor(const std::string& name,
                              std::function<void(Result<PageId>)> done) {
  auto anchor = std::make_shared<PageId>(kInvalidPage);
  std::string cat_key = "tbl:" + name;
  auto attempt = [this, cat_key, anchor]() -> Status {
    Result<Page*> meta = GetPage(0);
    if (!meta.ok()) return meta.status();
    pool_.Pin(0);
    Slice v;
    if (!(*meta)->GetRecord(cat_key, &v) || v.size() != 12) {
      return Status::NotFound("no such table");
    }
    *anchor = DecodeFixed64(v.data());
    return Status::OK();
  };
  restarts_.Run(attempt, [done, anchor](Status s) {
    if (s.ok()) {
      done(*anchor);
    } else {
      done(s);
    }
  });
}

void ReadReplica::ReportReadPointTick() {
  const uint64_t gen = generation_;
  read_point_timer_ = loop_->Schedule(options_.pgmrpl_interval, [this, gen] {
    if (gen != generation_ || crashed_) return;
    ReportReadPointTick();
  });
  if (applied_vdl_ == kInvalidLsn) return;
  ReplicaReadPointMsg m;
  m.read_point = applied_vdl_;
  std::string payload;
  m.EncodeTo(&payload);
  network_->Send(node_id_, writer_node_, kMsgReplicaReadPoint,
                 std::move(payload));
}

}  // namespace aurora
