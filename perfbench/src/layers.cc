#include "layers.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "storage/segment.h"
#include "storage/wire.h"

namespace perfbench {

using aurora::AuroraCluster;
using aurora::LogRecord;
using aurora::MetricsSnapshot;

namespace {

/// Records copied from the run's segments for the replays.
constexpr size_t kMaxReplayRecords = 20000;
/// Pages read back through Segment::GetPageAsOf.
constexpr size_t kMaxReplayPages = 512;
/// Bytes pushed through crc32c::Extend.
constexpr size_t kCrcReplayBytes = 8 << 20;

/// Keeps replay results observable so the timed work is not optimized away.
volatile uint32_t g_sink = 0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Counter(const MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Window delta of one registry counter.
double Delta(const WindowCapture& w, const std::string& name) {
  return static_cast<double>(Counter(w.close, name) - Counter(w.open, name));
}

bool IsNodeCounter(const std::string& name, const std::string& suffix) {
  return name.rfind("storage.node", 0) == 0 && name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Window delta of a per-storage-node counter, summed over the fleet.
double FleetDelta(const WindowCapture& w, const std::string& suffix) {
  double sum = 0;
  for (const auto& [name, value] : w.close.counters) {
    if (IsNodeCounter(name, suffix)) sum += value - Counter(w.open, name);
  }
  return sum;
}

double BusyCoreUs(AuroraCluster* c) {
  aurora::sim::Instance* cpu = c->writer_instance();
  return cpu->Utilization(0) * static_cast<double>(c->loop()->now()) *
         cpu->vcpus();
}

struct ReplayRecords {
  std::vector<std::vector<LogRecord>> by_pg;  // LSN order within a PG
  size_t total = 0;
};

ReplayRecords CollectRecords(AuroraCluster* c) {
  ReplayRecords out;
  const size_t pgs = c->control_plane()->num_pgs();
  for (aurora::PgId pg = 0; pg < pgs && out.total < kMaxReplayRecords; ++pg) {
    for (size_t n = 0; n < c->num_storage_nodes(); ++n) {
      const aurora::Segment* seg = c->storage_node(n)->segment(pg);
      if (seg == nullptr) continue;
      std::vector<LogRecord> recs;
      for (const LogRecord* r :
           seg->RecordsAbove(aurora::kInvalidLsn, kMaxReplayRecords - out.total)) {
        recs.push_back(*r);
      }
      out.total += recs.size();
      out.by_pg.push_back(std::move(recs));
      break;
    }
  }
  return out;
}

/// Segment::AddRecord into fresh segments, in the run's LSN order.
double AddRecordNs(const ReplayRecords& recs, size_t page_size) {
  if (recs.total == 0) return 0;
  uint64_t ns = 0;
  for (size_t pg = 0; pg < recs.by_pg.size(); ++pg) {
    aurora::Segment seg(static_cast<aurora::PgId>(pg), page_size);
    uint64_t t0 = WallNs();
    for (const LogRecord& r : recs.by_pg[pg]) seg.AddRecord(r);
    ns += WallNs() - t0;
  }
  return static_cast<double>(ns) / recs.total;
}

/// WriteBatchMsg encode and decode of the run's records, grouped into
/// batches of the run's mean size.
void WireNs(const ReplayRecords& recs, double records_per_batch, Metrics* out) {
  const size_t per_batch =
      std::max<size_t>(1, static_cast<size_t>(records_per_batch + 0.5));
  std::vector<aurora::WriteBatchMsg> batches;
  for (const auto& pg_recs : recs.by_pg) {
    for (size_t i = 0; i < pg_recs.size(); i += per_batch) {
      aurora::WriteBatchMsg m;
      m.epoch = 1;
      m.batch_seq = batches.size();
      size_t end = std::min(pg_recs.size(), i + per_batch);
      m.records.assign(pg_recs.begin() + i, pg_recs.begin() + end);
      batches.push_back(std::move(m));
    }
  }
  if (batches.empty()) {
    (*out)["storage.wire.batch_encode_ns"] = 0;
    (*out)["storage.wire.batch_decode_ns"] = 0;
    return;
  }
  std::vector<std::string> encoded(batches.size());
  uint64_t t0 = WallNs();
  for (size_t i = 0; i < batches.size(); ++i) batches[i].EncodeTo(&encoded[i]);
  uint64_t encode_ns = WallNs() - t0;
  aurora::WriteBatchMsg decoded;
  size_t bad = 0;
  t0 = WallNs();
  for (const std::string& e : encoded) {
    bad += !aurora::WriteBatchMsg::DecodeFrom(e, &decoded).ok();
  }
  uint64_t decode_ns = WallNs() - t0;
  (*out)["storage.wire.batch_encode_ns"] =
      static_cast<double>(encode_ns) / batches.size();
  (*out)["storage.wire.batch_decode_ns"] =
      bad ? 0 : static_cast<double>(decode_ns) / batches.size();
}

/// crc32c::Extend over frames of the run's mean message size.
double CrcNsPerKb(double bytes_per_msg) {
  const size_t frame = std::max<size_t>(1, static_cast<size_t>(bytes_per_msg));
  std::string buf(kCrcReplayBytes, '\0');
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 131);
  uint32_t crc = 0;
  uint64_t t0 = WallNs();
  for (size_t off = 0; off + frame <= buf.size(); off += frame) {
    crc ^= aurora::crc32c::Extend(0, buf.data() + off, frame);
  }
  uint64_t ns = WallNs() - t0;
  g_sink = crc;
  const size_t bytes = buf.size() / frame * frame;
  return static_cast<double>(ns) / (bytes / 1024.0);
}

/// Segment::GetPageAsOf on the run's own segments: pages the run wrote,
/// then table leaves spread over the key space.
double GetPageNs(const LayerInputs& in, const ReplayRecords& recs) {
  AuroraCluster* c = in.cluster;
  std::vector<aurora::PageId> pages;
  for (const auto& pg_recs : recs.by_pg) {
    for (const LogRecord& r : pg_recs) pages.push_back(r.page_id);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  if (pages.size() > kMaxReplayPages / 2) pages.resize(kMaxReplayPages / 2);
  const uint64_t rows = in.layout.rows();
  for (uint64_t i = 0; pages.size() < kMaxReplayPages && i < kMaxReplayPages; ++i) {
    pages.push_back(in.layout.LeafOf(i * rows / kMaxReplayPages));
  }
  const uint64_t per_pg = c->writer()->options().pages_per_pg;
  uint64_t ns = 0, reads = 0;
  for (aurora::PageId page : pages) {
    const auto pg = static_cast<aurora::PgId>(page / per_pg);
    for (size_t n = 0; n < c->num_storage_nodes(); ++n) {
      const aurora::Segment* seg = c->storage_node(n)->segment(pg);
      if (seg == nullptr) continue;
      uint64_t t0 = WallNs();
      bool ok = seg->GetPageAsOf(page, seg->scl()).ok();
      uint64_t dt = WallNs() - t0;
      if (ok) {
        ns += dt;
        ++reads;
      }
      break;
    }
  }
  return reads ? static_cast<double>(ns) / reads : 0;
}

}  // namespace

void WindowCapture::Open(AuroraCluster* c) {
  aurora::EngineStats* s = c->writer()->mutable_stats();
  for (aurora::Histogram* h :
       {&s->page_fetch_latency_us, &s->batch_append_to_flush_us,
        &s->batch_flush_to_first_ack_us, &s->batch_first_ack_to_quorum_us}) {
    h->Reset();
  }
  open = c->metrics()->Snapshot();
  t_open = c->loop()->now();
  cpu_busy_open = BusyCoreUs(c);
}

void WindowCapture::Close(AuroraCluster* c) {
  close = c->metrics()->Snapshot();
  t_close = c->loop()->now();
  cpu_busy_close = BusyCoreUs(c);
  const aurora::EngineStats& s = c->writer()->stats();
  page_fetch = aurora::HistogramSummary::Of(s.page_fetch_latency_us);
  append_to_flush = aurora::HistogramSummary::Of(s.batch_append_to_flush_us);
  flush_to_first_ack =
      aurora::HistogramSummary::Of(s.batch_flush_to_first_ack_us);
  first_ack_to_quorum =
      aurora::HistogramSummary::Of(s.batch_first_ack_to_quorum_us);
}

void WindowCapture::SampleBacklogUntilClose(AuroraCluster* c,
                                            aurora::sim::EventLoop* loop,
                                            const bool* closed) {
  for (size_t n = 0; n < c->num_storage_nodes(); ++n) {
    backlog_max = std::max(backlog_max, c->storage_node(n)->disk()->backlog());
  }
  loop->Schedule(aurora::Millis(1), [this, c, loop, closed] {
    if (*closed) return;
    ++sampler_events;
    SampleBacklogUntilClose(c, loop, closed);
  });
}

void VirtualLayerMetrics(const LayerInputs& in, Metrics* out, Metrics* counts) {
  const WindowCapture& w = *in.window;
  const BenchClient& client = *in.client;
  Metrics& m = *out;
  const double window_s = static_cast<double>(w.t_close - w.t_open) / 1e6;
  const double txns = static_cast<double>(client.attempted());
  const double commits = static_cast<double>(client.commits_in_window());

  // engine: buffer pool, stage splits, redo, locks, CPU.
  const double hits = Delta(w, "engine.writer.cache.hits");
  const double misses = Delta(w, "engine.writer.cache.misses");
  m["engine.bufpool.hit_ratio"] = Ratio(hits, hits + misses);
  m["engine.bufpool.evictions"] = Delta(w, "engine.writer.cache.evictions");
  m["engine.stage.page_fetch_us.p50"] = w.page_fetch.p50;
  m["engine.stage.page_fetch_us.p99"] = w.page_fetch.p99;
  m["engine.stage.append_to_flush_us.p50"] = w.append_to_flush.p50;
  m["engine.stage.flush_to_first_ack_us.p50"] = w.flush_to_first_ack.p50;
  m["engine.stage.first_ack_to_quorum_us.p50"] = w.first_ack_to_quorum.p50;
  m["engine.stage.first_ack_to_quorum_us.p99"] = w.first_ack_to_quorum.p99;
  const double records = Delta(w, "engine.writer.log_records_sent");
  const double batches = Delta(w, "engine.writer.log_batches_sent");
  m["engine.log.records_per_txn"] = Ratio(records, commits);
  m["engine.log.bytes_per_txn"] =
      Ratio(Delta(w, "engine.writer.log_bytes_generated"), commits);
  m["engine.log.records_per_batch"] = Ratio(records, batches);
  m["engine.lock.waits_per_ktxn"] =
      Ratio(1000 * Delta(w, "engine.writer.locks.waits"), txns);
  m["engine.lock.deadlocks_per_ktxn"] =
      Ratio(1000 * Delta(w, "engine.writer.locks.deadlocks"), txns);
  m["engine.lock.timeouts_per_ktxn"] =
      Ratio(1000 * Delta(w, "engine.writer.locks.timeouts"), txns);
  m["engine.cpu_util"] =
      Ratio(w.cpu_busy_close - w.cpu_busy_open,
            static_cast<double>(w.t_close - w.t_open) *
                in.cluster->writer_instance()->vcpus());

  // replica: redo apply.
  const double applied = Delta(w, "replica.r0.records_applied");
  const double discarded = Delta(w, "replica.r0.records_discarded");
  m["replica.mtrs_applied_per_s"] =
      Ratio(Delta(w, "replica.r0.mtrs_applied"), window_s);
  m["replica.records_discarded_ratio"] = Ratio(discarded, applied + discarded);

  // storage: ingest, coalescing, page cache, disk, gossip.
  double hot_log_max = 0;
  const std::string received = ".records_received";
  for (const auto& [name, value] : w.close.counters) {
    if (!IsNodeCounter(name, received)) continue;
    const std::string node = name.substr(0, name.size() - received.size());
    double gced = static_cast<double>(Counter(w.close, node + ".records_gced"));
    hot_log_max = std::max(hot_log_max, static_cast<double>(value) - gced);
  }
  m["storage.hot_log_records"] = hot_log_max;
  const double ingested = FleetDelta(w, ".records_received");
  m["storage.coalesce_ratio"] =
      Ratio(FleetDelta(w, ".records_coalesced"), ingested);
  const double pc_hits = Delta(w, "storage.page_cache.hits");
  const double pc_partial = Delta(w, "storage.page_cache.partial_hits");
  const double pc_misses = Delta(w, "storage.page_cache.misses");
  const double pc_all = pc_hits + pc_partial + pc_misses;
  m["storage.page_cache.hit_ratio"] = Ratio(pc_hits, pc_all);
  m["storage.page_cache.partial_hit_ratio"] = Ratio(pc_partial, pc_all);
  m["storage.disk.bytes_per_user_byte"] =
      Ratio(FleetDelta(w, ".disk.bytes_written"),
            static_cast<double>(client.user_bytes()));
  m["storage.disk.backlog_us.max"] = static_cast<double>(w.backlog_max);
  const double gossip_filled = FleetDelta(w, ".gossip_records_filled");
  m["storage.gossip.fill_ratio"] =
      Ratio(gossip_filled, FleetDelta(w, ".gossip_records_sent"));

  // sim and network.
  const double events = Delta(w, "sim.events_executed") - w.sampler_events;
  const double msgs = Delta(w, "net.total.messages_sent");
  const double bytes = Delta(w, "net.total.bytes_sent");
  m["sim.events_per_txn"] = Ratio(events, txns);
  m["sim.loop.tombstones"] = Delta(w, "sim.loop.tombstones");
  m["sim.loop.heap_peak"] =
      static_cast<double>(Counter(w.close, "sim.loop.heap_peak"));
  m["net.msgs_per_txn"] = Ratio(msgs, txns);
  m["net.bytes_per_txn"] = Ratio(bytes, txns);

  // The window's call counts, for sim.event_ns and harness.unattributed_s.
  Metrics& n = *counts;
  n["events"] = events;
  n["records_ingested"] = ingested + gossip_filled;
  n["batches_encoded"] = batches;
  n["batches_decoded"] = FleetDelta(w, ".batches_received");
  n["net_kb_checksummed"] = 2 * bytes / 1024;  // sender and receiver
  n["page_reads_served"] = FleetDelta(w, ".page_reads_served");
}

void WallLayerMetrics(const LayerInputs& in, Metrics* out) {
  const BenchClient& client = *in.client;
  Metrics& m = *out;
  auto per_call = [](const BenchClient::CallStats& s) {
    return Ratio(static_cast<double>(s.wall_ns), static_cast<double>(s.calls));
  };
  m["engine.call_ns.get"] = per_call(client.get_stats());
  m["engine.call_ns.put"] = per_call(client.put_stats());
  m["engine.call_ns.commit"] = per_call(client.commit_stats());

  std::vector<uint64_t> snap_ns;
  for (int i = 0; i < 5; ++i) {
    uint64_t t0 = WallNs();
    MetricsSnapshot s = in.cluster->metrics()->Snapshot();
    snap_ns.push_back(WallNs() - t0);
    g_sink = static_cast<uint32_t>(s.counters.size());
  }
  std::sort(snap_ns.begin(), snap_ns.end());
  m["metrics.snapshot_ns"] = static_cast<double>(snap_ns[snap_ns.size() / 2]);

  const WindowCapture& w = *in.window;
  const double records = Delta(w, "engine.writer.log_records_sent");
  const double batches = Delta(w, "engine.writer.log_batches_sent");
  const double msgs = Delta(w, "net.total.messages_sent");
  const double bytes = Delta(w, "net.total.bytes_sent");
  ReplayRecords recs = CollectRecords(in.cluster);
  m["storage.segment.add_record_ns"] =
      AddRecordNs(recs, in.cluster->writer()->options().page_size);
  WireNs(recs, Ratio(records, batches), out);
  m["common.crc32c_ns_per_kb"] = CrcNsPerKb(Ratio(bytes, msgs));
  m["storage.segment.get_page_ns"] = GetPageNs(in, recs);
}

}  // namespace perfbench
