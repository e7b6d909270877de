#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/bulk_load.h"
#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/synthetic_table.h"
#include "sim/chaos.h"
#include "sim/event_loop.h"
#include "tests/test_util.h"
#include "workload/sysbench.h"

namespace aurora {
namespace {

using testing::Key;

// The whole repository rests on the simulator being bit-for-bit
// deterministic: identical seeds must produce identical histories no matter
// how the event queue is implemented internally. These tests pin that
// contract so the kernel can be rebuilt (std::map -> d-ary heap with lazy
// cancellation) without silently reordering same-time events.

/// Runs one fixed seeded workload — bootstrap, chaos (drops + AZ failure +
/// node crash, which exercise Cancel() heavily), writer crash + recovery —
/// and returns the full metrics dump plus the executed-event count. With
/// `adversary` set, the fabric additionally duplicates, reorders and
/// corrupts frames (all drawn from the seeded network RNG).
std::pair<std::string, uint64_t> RunSeededWorkload(uint64_t seed,
                                                   bool adversary = false) {
  ClusterOptions o;
  o.seed = seed;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 512;
  o.storage_nodes_per_az = 3;
  o.num_replicas = 1;
  o.repair.detection_threshold = Seconds(2);
  AuroraCluster cluster(o);
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  EXPECT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  Random rng(seed * 131 + 7);
  ChaosEngine chaos(&cluster);
  if (adversary) {
    AdversaryConfig cfg;
    cfg.drop_probability = 0.02;
    cfg.duplicate_probability = 0.05;
    cfg.reorder_window = Millis(2);
    cfg.corrupt_probability = 0.001;
    chaos.SetAdversary(cfg);
  } else {
    cluster.network()->set_drop_probability(0.01);
  }
  std::map<std::string, std::string> acked;
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      cluster.failure_injector()->FailAz(static_cast<sim::AzId>(1),
                                         Seconds(1));
    }
    if (round == 2) {
      cluster.failure_injector()->CrashNode(cluster.storage_node(0)->id(),
                                            Seconds(1));
    }
    for (int i = 0; i < 20; ++i) {
      std::string key = Key(rng.Uniform(64));
      std::string value = "v" + std::to_string(round * 100 + i);
      if (cluster.PutSync(table, key, value).ok()) acked[key] = value;
    }
    cluster.RunFor(Millis(300));
  }
  chaos.ClearAdversary();
  cluster.CrashWriter();
  EXPECT_TRUE(cluster.RecoverSync().ok());
  cluster.RunFor(Seconds(2));
  for (const auto& [key, value] : acked) {
    auto got = cluster.GetSync(table, key);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, value);
    }
  }
  return {cluster.DumpMetricsJson(), cluster.loop()->events_executed()};
}

// Identical seeds => byte-identical metrics JSON (every counter, gauge and
// histogram bucket in the cluster) and the exact same number of executed
// events. Any nondeterminism anywhere — iteration order, same-time event
// ordering, uninitialized reads feeding control flow — shows up here.
TEST(DeterminismTest, SeededWorkloadIsByteIdentical) {
  auto [json_a, executed_a] = RunSeededWorkload(20260806);
  auto [json_b, executed_b] = RunSeededWorkload(20260806);
  EXPECT_EQ(executed_a, executed_b);
  EXPECT_EQ(json_a, json_b);
}

// The adversary (duplication + reorder + corruption) draws all its
// randomness from the seeded network RNG, so an adversary-on run must be
// exactly as reproducible as a clean one — the acceptance bar for using it
// in chaos CI.
TEST(DeterminismTest, AdversaryRunIsByteIdentical) {
  auto [json_a, executed_a] = RunSeededWorkload(20260806, /*adversary=*/true);
  auto [json_b, executed_b] = RunSeededWorkload(20260806, /*adversary=*/true);
  EXPECT_EQ(executed_a, executed_b);
  EXPECT_EQ(json_a, json_b);
  // The adversary must have actually done something, or this proves nothing.
  // (ToJson nests dotted names, so look for the leaf key.)
  EXPECT_NE(json_a.find("\"duplicates_injected\""), std::string::npos);
  auto [clean, clean_events] = RunSeededWorkload(20260806, /*adversary=*/false);
  (void)clean_events;
  EXPECT_NE(json_a, clean);
}

/// The robustness surface in one pot: chunked repair (permanent node loss), the scrubber racing latent disk corruption and torn writes, and
/// the fabric adversary — all of whose retry/failover/read-repair decisions
/// draw from seeded RNG streams. Returns the metrics dump + event count.
std::pair<std::string, uint64_t> RunRepairScrubWorkload(uint64_t seed) {
  ClusterOptions o;
  o.seed = seed;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 512;
  o.storage_nodes_per_az = 4;
  o.repair.detection_threshold = Seconds(1);
  o.repair.chunk_bytes = 2048;
  o.storage.scrub_interval = Seconds(1);
  o.storage.disk.torn_write_probability = 0.02;
  o.storage.disk.latent_corruption_probability = 0.05;
  AuroraCluster cluster(o);
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  EXPECT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  Random rng(seed * 131 + 7);
  ChaosEngine chaos(&cluster);
  AdversaryConfig cfg;
  cfg.drop_probability = 0.02;
  cfg.duplicate_probability = 0.05;
  cfg.reorder_window = Millis(2);
  cfg.corrupt_probability = 0.001;
  chaos.SetAdversary(cfg);
  std::map<std::string, std::string> acked;
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      // Permanent loss: the repair state machine (chunked transfer, chunk
      // timeouts, possibly donor failover) runs under the adversary.
      cluster.failure_injector()->CrashNode(cluster.storage_node(0)->id(), 0);
    }
    for (int i = 0; i < 20; ++i) {
      std::string key = Key(rng.Uniform(64));
      std::string value = "v" + std::to_string(round * 100 + i);
      if (cluster.PutSync(table, key, value).ok()) acked[key] = value;
    }
    cluster.RunFor(Seconds(1));  // scrub rounds + repair progress
  }
  cluster.RunFor(Seconds(3));
  chaos.ClearAdversary();
  for (const auto& [key, value] : acked) {
    auto got = cluster.GetSync(table, key);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, value);
    }
  }
  return {cluster.DumpMetricsJson(), cluster.loop()->events_executed()};
}

// Repair + scrubber + disk faults active: two same-seed runs must be
// byte-identical, or chaos CI results would not be reproducible.
TEST(DeterminismTest, RepairScrubDiskFaultSweepIsByteIdentical) {
  auto [json_a, executed_a] = RunRepairScrubWorkload(20260807);
  auto [json_b, executed_b] = RunRepairScrubWorkload(20260807);
  EXPECT_EQ(executed_a, executed_b);
  EXPECT_EQ(json_a, json_b);
  // Each subsystem's metrics are present in the dump, or the comparison
  // proves nothing about them.
  EXPECT_NE(json_a.find("\"torn_write_drops\""), std::string::npos);
  EXPECT_NE(json_a.find("\"repair\""), std::string::npos);
  EXPECT_NE(json_a.find("\"scrub\""), std::string::npos);
}

/// A short sysbench run with 100 ms interval-windowed metrics, returning
/// every window serialized, so the whole time series — not just the final
/// dump — is compared.
std::string RunWindowedSysbench() {
  ClusterOptions o;
  o.seed = 7;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 512;
  o.storage_nodes_per_az = 3;
  AuroraCluster cluster(o);
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  SyntheticCatalog catalog;
  auto layout = AttachSyntheticTable(&cluster, &catalog, "sbtest", 4000, 100);
  EXPECT_TRUE(layout.ok());
  AuroraClient client(cluster.writer());
  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kOltp;
  sopts.connections = 8;
  sopts.table_rows = 4000;
  sopts.duration = Millis(600);
  sopts.warmup = Millis(200);
  SysbenchDriver driver(cluster.loop(), &client, (*layout)->anchor(), sopts);
  driver.EnableIntervalMetrics(cluster.metrics(), Millis(100));
  bool done = false;
  driver.Run([&] { done = true; });
  EXPECT_TRUE(cluster.RunUntil([&] { return done; }, Minutes(5)));
  EXPECT_GE(driver.metric_windows().size(), 6u);
  std::string out;
  for (const MetricsSnapshot& w : driver.metric_windows()) {
    out += w.ToJson();
    out += '\n';
  }
  return out;
}

TEST(DeterminismTest, IntervalWindowsAreByteIdenticalAcrossWorkers) {
  std::string a = RunWindowedSysbench();
  std::string b = RunWindowedSysbench();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Different seeds must actually diverge, otherwise the test above proves
// nothing (e.g. if the dump ignored the workload entirely).
TEST(DeterminismTest, DifferentSeedsDiverge) {
  auto [json_a, executed_a] = RunSeededWorkload(1);
  auto [json_b, executed_b] = RunSeededWorkload(2);
  EXPECT_NE(json_a, json_b);
}

// ---------------------------------------------------------------------------
// Model equivalence: the EventLoop against a reference implementation of the
// original std::map ordering semantics — events fire in (time, schedule
// order); Cancel removes exactly the named event; RunUntil runs everything
// due at or before t and clamps the clock. Random interleavings of
// Schedule / nested Schedule / Cancel / RunUntil must produce the identical
// execution sequence and identical pending() counts.
// ---------------------------------------------------------------------------

class ReferenceQueue {
 public:
  // Returns a token used for cancellation.
  uint64_t Schedule(SimTime at, int tag) {
    uint64_t token = next_id_++;
    queue_[{at < now_ ? now_ : at, token}] = tag;
    return token;
  }

  bool Cancel(uint64_t token) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->first.second == token) {
        queue_.erase(it);
        return true;
      }
    }
    return false;
  }

  // Pops everything, leaving the clock at the last event's time.
  void Drain(std::vector<int>* out) {
    while (!queue_.empty()) {
      auto it = queue_.begin();
      now_ = it->first.first;
      out->push_back(it->second);
      queue_.erase(it);
    }
  }

  // Pops every event due at or before `t` in order, appending tags to out.
  void RunUntil(SimTime t, std::vector<int>* out) {
    while (!queue_.empty() && queue_.begin()->first.first <= t) {
      auto it = queue_.begin();
      now_ = it->first.first;
      out->push_back(it->second);
      queue_.erase(it);
    }
    if (now_ < t) now_ = t;
  }

  SimTime now() const { return now_; }
  size_t pending() const { return queue_.size(); }

 private:
  SimTime now_ = 0;
  uint64_t next_id_ = 1;
  std::map<std::pair<SimTime, uint64_t>, int> queue_;
};

class ModelEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ModelEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(ModelEquivalenceTest, RandomInterleavingsMatchReference) {
  Random rng(GetParam() * 2654435761u + 1);
  sim::EventLoop loop;
  ReferenceQueue ref;
  std::vector<int> loop_fired;
  std::vector<int> ref_fired;
  // Live events scheduled in both, as (loop id, reference token) pairs.
  std::vector<std::pair<sim::EventId, uint64_t>> live;
  int next_tag = 0;

  for (int step = 0; step < 4000; ++step) {
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
      case 2: {  // Schedule at a (possibly past/now) absolute time.
        SimTime at = loop.now() + rng.Uniform(500);
        if (rng.Uniform(10) == 0) at = at >= 75 ? at - 75 : 0;
        int tag = next_tag++;
        sim::EventId id =
            loop.ScheduleAt(at, [tag, &loop_fired] { loop_fired.push_back(tag); });
        live.push_back({id, ref.Schedule(at, tag)});
        break;
      }
      case 3: {  // Schedule an event that schedules a nested event.
        SimDuration d = rng.Uniform(300);
        SimDuration nested_d = rng.Uniform(100);
        int tag = next_tag++;
        int nested_tag = next_tag++;
        sim::EventId id = loop.Schedule(d, [=, &loop, &loop_fired] {
          loop_fired.push_back(tag);
          loop.Schedule(nested_d, [nested_tag, &loop_fired] {
            loop_fired.push_back(nested_tag);
          });
        });
        // Reference models the nesting by pre-resolving the fire times; the
        // nested event is only enqueued if the outer one actually fires, so
        // track the pairing for cancellation.
        live.push_back({id, ref.Schedule(loop.now() + d, ~tag)});
        break;
      }
      case 4: {  // Cancel a random live event (or a bogus id).
        if (!live.empty() && rng.Uniform(8) != 0) {
          size_t idx = rng.Uniform(live.size());
          bool a = loop.Cancel(live[idx].first);
          bool b = ref.Cancel(live[idx].second);
          EXPECT_EQ(a, b);
          live.erase(live.begin() + idx);
        } else {
          EXPECT_FALSE(loop.Cancel(sim::EventId{0}));
        }
        break;
      }
      case 5: {  // Double-cancel: cancel, then cancel the same id again.
        if (!live.empty()) {
          size_t idx = rng.Uniform(live.size());
          sim::EventId id = live[idx].first;
          EXPECT_EQ(loop.Cancel(id), ref.Cancel(live[idx].second));
          EXPECT_FALSE(loop.Cancel(id));
          live.erase(live.begin() + idx);
        }
        break;
      }
      default: {  // Advance time.
        SimTime t = loop.now() + rng.Uniform(400);
        loop.RunUntil(t);
        ref.RunUntil(t, &ref_fired);
        EXPECT_EQ(loop.now(), t);
        EXPECT_EQ(ref.now(), t);
        break;
      }
    }
    // Resolve reference bookkeeping for outer events that fired (their
    // nested children are in the real loop only; drain and re-sync below).
    if (loop_fired.size() != ref_fired.size() || step % 512 == 511) {
      // Align by draining both completely, then re-sync the clocks (nested
      // children exist in the real loop only, so its clock may be ahead).
      loop.Run();
      ref.Drain(&ref_fired);
      SimTime sync = std::max(loop.now(), ref.now());
      loop.RunUntil(sync);
      ref.RunUntil(sync, &ref_fired);
      // Nested events only exist in the real loop; strip them and the
      // encoded outer markers before comparing the common subsequence.
      std::vector<int> a;
      for (int t : loop_fired) a.push_back(t);
      std::vector<int> b;
      for (int t : ref_fired) b.push_back(t < 0 ? ~t : t);
      // Remove tags unknown to the reference (nested children).
      std::vector<int> a_outer;
      std::set<int> ref_tags(b.begin(), b.end());
      for (int t : a) {
        if (ref_tags.count(t)) a_outer.push_back(t);
      }
      EXPECT_EQ(a_outer, b);
      loop_fired.clear();
      ref_fired.clear();
      live.clear();
    }
  }
}

// Same-time FIFO under interleaved cancellation: cancelling some of a batch
// of same-time events must not disturb the relative order of the survivors.
TEST(DeterminismTest, SameTimeFifoSurvivesCancellation) {
  sim::EventLoop loop;
  std::vector<int> fired;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(loop.Schedule(10, [i, &fired] { fired.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 3) EXPECT_TRUE(loop.Cancel(ids[i]));
  loop.Run();
  std::vector<int> expect;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) expect.push_back(i);
  }
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(loop.pending(), 0u);
}

}  // namespace
}  // namespace aurora
