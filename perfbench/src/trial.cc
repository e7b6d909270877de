#include "trial.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>

#include "bench_client.h"
#include "harness/bulk_load.h"
#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/scale.h"
#include "layers.h"

namespace perfbench {

using aurora::AuroraClient;
using aurora::AuroraCluster;
using aurora::ClusterOptions;
using aurora::Millis;
using aurora::Seconds;
using aurora::SyntheticCatalog;
using aurora::SyntheticTableLayout;
using aurora::SysbenchDriver;
using aurora::SysbenchOptions;
using Mode = aurora::SysbenchOptions::Mode;

namespace {

// Sizes are in scale::kRowsPerGb rows of scale::kRowBytes; NOTES.md gives
// the reasons. Windows are virtual time.
const WorkloadSpec kWorkloads[] = {
    {"write_cached", Mode::kWriteOnly, 0, 4, 0.0, 10 * aurora::scale::kRowsPerGb,
     aurora::scale::kCachePagesFor170Gb, 16, 1, Millis(200), Millis(300),
     false},
    {"read_miss", Mode::kReadOnly, 10, 0, 0.0, 40 * aurora::scale::kRowsPerGb,
     400, 16, 0, Millis(200), Millis(500), true},
    {"oltp_skewed", Mode::kOltp, 8, 2, 0.9, 40 * aurora::scale::kRowsPerGb, 400,
     8, 0, Millis(500), Seconds(30), false},
    {"oltp_uniform", Mode::kOltp, 8, 2, 0.0, 40 * aurora::scale::kRowsPerGb, 400,
     8, 0, Millis(200), Seconds(1), false},
};

/// Crash/recover cycles per trial; recovery_ms is their median.
constexpr int kRecoveries = 7;
/// Rows read back after recovery when the workload wrote nothing.
constexpr uint64_t kLayoutReadBack = 1024;
/// Concurrent autocommit readers of the durability check.
constexpr int kReadBackConns = 32;

double NsToS(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The p-th percentile of exact samples: the sorted sample at 0-based rank
/// floor(p% of n), so every value is one that was measured.
double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

const char* OpName(Span::Op op) {
  switch (op) {
    case Span::kTxn: return "txn";
    case Span::kGet: return "get";
    case Span::kPut: return "put";
    case Span::kCommit: return "commit";
  }
  return "?";
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"txn\":" << s.txn << ",\"op\":\"" << OpName(s.op)
        << "\",\"ok\":" << (s.ok ? 1 : 0) << ",\"start_us\":" << s.start
        << ",\"end_us\":" << s.end << ",\"wall_ns\":" << s.wall_ns << "}\n";
  }
}

/// Reads every (key, value) of `want` back in autocommit transactions,
/// kReadBackConns at a time. Returns "" or what went wrong first.
std::string ReadBack(AuroraCluster* cluster, aurora::ClientApi* db,
                     PageId table,
                     const std::vector<std::pair<std::string, std::string>>& want) {
  size_t next = 0, done = 0;
  std::string error;
  std::function<void()> start = [&] {
    if (next == want.size()) return;
    const size_t i = next++;
    const TxnId txn = db->Begin();
    db->Get(txn, table, want[i].first, [&, i, txn](Result<std::string> got) {
      if (error.empty() && !got.ok()) {
        error = "read-back of " + want[i].first + ": " + got.status().ToString();
      } else if (error.empty() && *got != want[i].second) {
        error = "read-back of " + want[i].first + " returned a wrong value";
      }
      db->Commit(txn, [&](Status) {
        ++done;
        start();
      });
    });
  };
  for (int c = 0; c < kReadBackConns; ++c) start();
  cluster->RunUntil([&] { return done == want.size(); }, Seconds(600));
  if (error.empty() && done != want.size()) error = "read-back did not finish";
  return error;
}

/// Marks the trial failed, keeping the first reason.
TrialResult& Fail(TrialResult& r, const std::string& why) {
  r.ok = false;
  if (r.error.empty()) r.error = why;
  return r;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

TrialResult RunTrial(const WorkloadSpec& spec, uint64_t seed, bool trace,
                     const std::string& spans_path) {
  TrialResult r;
  const uint64_t setup_start = WallNs();

  ClusterOptions copts;
  copts.engine.page_size = aurora::scale::kPageSize;
  copts.engine.pages_per_pg = 2048;
  copts.engine.buffer_pool_pages = spec.buffer_pool_pages;
  copts.storage_nodes_per_az = 4;
  copts.num_replicas = spec.replicas;
  copts.seed = seed;
  copts.sim_shards = 1;
  SyntheticCatalog catalog;  // outlives the cluster's page synthesizer
  auto cluster = std::make_unique<AuroraCluster>(copts);
  if (!cluster->BootstrapSync().ok()) return Fail(r, "bootstrap failed");
  auto layout = aurora::AttachSyntheticTable(cluster.get(), &catalog, "sbtest",
                                             spec.rows, aurora::scale::kRowBytes);
  if (!layout.ok()) return Fail(r, "table attach failed");
  const PageId table = (*layout)->anchor();

  AuroraClient engine(cluster->writer());
  aurora::sim::EventLoop* loop = cluster->writer_loop();
  BenchClient client(&engine, loop, spec.reads_match_layout ? *layout : nullptr,
                     trace);
  SysbenchOptions sopts;
  sopts.mode = spec.mode;
  sopts.connections = spec.connections;
  sopts.table_rows = spec.rows;
  sopts.value_size = aurora::scale::kRowBytes;
  sopts.zipf_theta = spec.zipf_theta;
  sopts.point_selects = spec.point_selects;
  sopts.index_updates = spec.index_updates;
  sopts.warmup = spec.warmup;
  sopts.duration = spec.window;
  sopts.seed = seed * 0x9E3779B97F4A7C15ull + 1;
  SysbenchDriver driver(loop, &client, table, sopts);

  WindowCapture capture;
  bool opened = false, closed = false, drained = false;
  aurora::ReadReplica* replica =
      spec.replicas > 0 ? cluster->replica(0) : nullptr;
  aurora::HistogramSummary lag;
  loop->Schedule(spec.warmup, [&] {
    client.OpenWindow();
    if (replica != nullptr) replica->mutable_stats()->lag_us.Reset();
    if (trace) capture.Open(cluster.get());
    opened = true;
  });
  loop->Schedule(spec.warmup + spec.window, [&] {
    client.CloseWindow();
    if (replica != nullptr) {
      lag = aurora::HistogramSummary::Of(replica->stats().lag_us);
    }
    if (trace) capture.Close(cluster.get());
    closed = true;
  });
  driver.Run([&] { drained = true; });

  cluster->RunUntil([&] { return opened; }, spec.warmup + Seconds(1));
  if (!opened) return Fail(r, "warm-up did not finish");
  const uint64_t window_start = WallNs();
  r.wall["setup_s"] = NsToS(window_start - setup_start);
  if (trace) capture.SampleBacklogUntilClose(cluster.get(), loop, &closed);
  cluster->RunUntil([&] { return closed; }, spec.window + Seconds(1));
  const uint64_t window_end = WallNs();
  if (!closed) return Fail(r, "window did not close");
  r.wall["wall_s"] = NsToS(window_end - window_start);
  r.wall["engine_call_s"] =
      NsToS(client.get_stats().wall_ns + client.put_stats().wall_ns +
            client.commit_stats().wall_ns);
  // In-flight transactions finish (or time out) before the crash, so every
  // acknowledgement the client saw is known to the durability check.
  cluster->RunUntil([&] { return drained; }, Seconds(60));
  if (!drained) return Fail(r, "transactions did not drain");

  r.attempted = client.attempted();
  r.failed = client.failed();
  const double window_s = aurora::ToSeconds(spec.window);
  r.virt["tps"] = static_cast<double>(client.commits_in_window()) / window_s;
  // error_rate also counts the transactions still open at the close: they
  // did not commit inside the window, even if they commit in the drain.
  r.virt["unfinished_at_close"] =
      static_cast<double>(client.unfinished_at_close());
  r.virt["error_rate"] =
      r.attempted
          ? static_cast<double>(client.uncommitted_at_close()) / r.attempted
          : 0;
  r.virt["txn_p50_us"] = Percentile(client.txn_us(), 50);
  r.virt["txn_p99_us"] = Percentile(client.txn_us(), 99);
  r.samples["txn"] = client.txn_us().size();
  r.virt["commit_p50_us"] = Percentile(client.commit_us(), 50);
  r.virt["commit_p99_us"] = Percentile(client.commit_us(), 99);
  r.samples["commit"] = client.commit_us().size();
  r.virt["read_p50_us"] = Percentile(client.read_us(), 50);
  r.virt["read_p99_us"] = Percentile(client.read_us(), 99);
  r.samples["read"] = client.read_us().size();
  r.virt["replica_lag_p99_us"] = static_cast<double>(lag.p99);
  r.samples["replica_lag"] = lag.count;

  std::vector<uint64_t> recovery_us;
  for (int i = 0; i < kRecoveries; ++i) {
    cluster->CrashWriter();
    const aurora::SimTime t0 = cluster->loop()->now();
    if (!cluster->RecoverSync().ok()) return Fail(r, "recovery failed");
    recovery_us.push_back(cluster->loop()->now() - t0);
  }
  r.virt["recovery_ms"] = Percentile(recovery_us, 50) / 1000.0;

  // Durability: every key an acknowledged commit wrote reads back that
  // commit's value after recovery. A workload that wrote nothing reads back
  // rows it can check against the table layout instead.
  std::vector<std::pair<std::string, std::string>> want(client.acked().begin(),
                                                        client.acked().end());
  if (want.empty()) {
    for (uint64_t i = 0; i < kLayoutReadBack; ++i) {
      const uint64_t row = (seed + i * 7919) % spec.rows;
      want.emplace_back(SyntheticTableLayout::KeyOf(row),
                        (*layout)->UserValueOf(row));
    }
  }
  std::string bad = ReadBack(cluster.get(), &engine, table, want);
  if (!bad.empty()) Fail(r, bad);
  if (client.read_mismatches() > 0) {
    Fail(r, std::to_string(client.read_mismatches()) +
                " reads differ from the table contents");
  }
  r.wall["peak_rss_mb"] = PeakRssMb();

  if (trace) {
    LayerInputs in{cluster.get(), &client, &capture, **layout};
    VirtualLayerMetrics(in, &r.layer_virt, &r.counts);
    WallLayerMetrics(in, &r.layer_wall);
    if (!spans_path.empty()) WriteSpans(client.spans(), spans_path);
  }
  return r;
}

}  // namespace perfbench
