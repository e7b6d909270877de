#include <gtest/gtest.h>

#include <string>

#include "harness/cluster.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

ClusterOptions FeatureCluster() {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 2048;
  o.storage_nodes_per_az = 3;
  return o;
}

class EngineFeatureTest : public ::testing::Test {
 protected:
  EngineFeatureTest() : cluster_(FeatureCluster()) {
    EXPECT_TRUE(cluster_.BootstrapSync().ok());
    EXPECT_TRUE(cluster_.CreateTableSync("t").ok());
    table_ = *cluster_.TableAnchorSync("t");
  }

  AuroraCluster cluster_;
  PageId table_ = kInvalidPage;
};

// --- LAL back-pressure (§4.2.1) -------------------------------------------

TEST_F(EngineFeatureTest, TinyLalThrottlesWritesWithoutLosingThem) {
  ClusterOptions o = FeatureCluster();
  o.engine.lal = 2000;  // a handful of records
  AuroraCluster c(o);
  ASSERT_TRUE(c.BootstrapSync().ok());
  ASSERT_TRUE(c.CreateTableSync("t").ok());
  PageId table = *c.TableAnchorSync("t");
  // Fire many writes concurrently: they must all eventually commit, with
  // back-pressure stalls recorded along the way.
  int committed = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    TxnId txn = c.writer()->Begin();
    c.writer()->Put(txn, table, Key(i), std::string(300, 'x'), [&, txn](Status s) {
      if (!s.ok()) return;
      c.writer()->Commit(txn, [&](Status cs) {
        if (cs.ok()) ++committed;
      });
    });
  }
  c.RunUntil([&] { return committed == n; }, Minutes(2));
  EXPECT_EQ(committed, n);
  EXPECT_GT(c.writer()->stats().backpressure_stalls, 0u);
  EXPECT_FALSE(c.writer()->in_backpressure());
}

// --- Online DDL (§7.3) ------------------------------------------------------

TEST_F(EngineFeatureTest, InstantDdlVersionsRowsLazily) {
  ASSERT_TRUE(cluster_.PutSync(table_, "old-row", "v0-value").ok());

  uint32_t version = 0;
  bool done = false;
  cluster_.writer()->AlterTableSchema("t", [&](Result<uint32_t> v) {
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    version = *v;
    done = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return done; }, Seconds(30)));
  EXPECT_EQ(version, 1u);

  // Rows written before the ALTER stay readable (decoded via their stamped
  // version); rows written after carry the new version. No table copy.
  auto old_row = cluster_.GetSync(table_, "old-row");
  ASSERT_TRUE(old_row.ok());
  EXPECT_EQ(*old_row, "v0-value");
  ASSERT_TRUE(cluster_.PutSync(table_, "new-row", "v1-value").ok());
  EXPECT_EQ(*cluster_.GetSync(table_, "new-row"), "v1-value");

  // A second ALTER bumps again.
  done = false;
  cluster_.writer()->AlterTableSchema("t", [&](Result<uint32_t> v) {
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 2u);
    done = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return done; }, Seconds(30)));
  EXPECT_TRUE(
      cluster_.writer()->TableAnchor("nonexistent").status().IsNotFound());
}

// --- Zero-downtime patching (§7.4) ------------------------------------------

TEST_F(EngineFeatureTest, ZdpPreservesInFlightSessions) {
  // A client keeps issuing autocommit writes; a patch lands mid-stream.
  int committed = 0, failed = 0;
  bool stop = false;
  std::function<void(int)> issue = [&](int i) {
    if (stop) return;
    TxnId txn = cluster_.writer()->Begin();
    cluster_.writer()->Put(txn, table_, Key(i % 50), "v",
                           [&, txn, i](Status s) {
      if (!s.ok()) {
        ++failed;
        issue(i + 1);
        return;
      }
      cluster_.writer()->Commit(txn, [&, i](Status cs) {
        cs.ok() ? ++committed : ++failed;
        issue(i + 1);
      });
    });
  };
  issue(0);

  bool patched = false;
  cluster_.loop()->Schedule(Millis(100), [&] {
    cluster_.writer()->ZeroDowntimePatch(Millis(50), [&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      patched = true;
    });
  });
  cluster_.RunUntil([&] { return patched && committed > 100; }, Minutes(2));
  stop = true;
  cluster_.RunFor(Seconds(1));

  EXPECT_TRUE(patched);
  EXPECT_EQ(failed, 0);     // no session ever saw an error
  EXPECT_GT(committed, 100);
  EXPECT_FALSE(cluster_.writer()->patching());
}

TEST_F(EngineFeatureTest, ZdpRejectsConcurrentPatch) {
  bool first = false;
  cluster_.writer()->ZeroDowntimePatch(Millis(100), [&](Status s) {
    EXPECT_TRUE(s.ok());
    first = true;
  });
  Status second = Status::OK();
  cluster_.writer()->ZeroDowntimePatch(Millis(100),
                                       [&](Status s) { second = s; });
  EXPECT_TRUE(second.IsBusy());
  cluster_.RunUntil([&] { return first; }, Seconds(30));
}

TEST_F(EngineFeatureTest, ZdpHoldsDeletesOfTransactionsBegunAfterThePatch) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "v").ok());
  bool patched = false;
  cluster_.writer()->ZeroDowntimePatch(Millis(100), [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    patched = true;
  });
  ASSERT_TRUE(cluster_.writer()->patching());
  // Begun after the patch started: its statements wait at the engine door
  // until the swapped engine is back.
  TxnId txn = cluster_.writer()->Begin();
  bool deleted = false;
  bool patched_before_delete = false;
  cluster_.writer()->Delete(txn, table_, "row", [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    patched_before_delete = patched;
    deleted = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return deleted; }, Seconds(30)));
  EXPECT_TRUE(patched_before_delete);
  bool committed = false;
  cluster_.writer()->Commit(txn, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    committed = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return committed; }, Seconds(30)));
  EXPECT_TRUE(cluster_.GetSync(table_, "row").status().IsNotFound());
}

// --- Statement latency histograms -------------------------------------------

TEST_F(EngineFeatureTest, DeleteRecordsWriteLatency) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "v").ok());
  auto writes = [&] {
    return cluster_.metrics()
        ->Snapshot()
        .histograms.at("engine.writer.write_latency_us")
        .count;
  };
  const uint64_t before = writes();
  ASSERT_TRUE(cluster_.DeleteSync(table_, "row").ok());
  EXPECT_EQ(writes(), before + 1);
}

TEST_F(EngineFeatureTest, ScanAndSnapshotPreImageRecordReadLatency) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "old").ok());
  const Histogram& reads = cluster_.writer()->stats().read_latency_us;
  const uint64_t before = reads.count();

  bool scanned = false;
  cluster_.writer()->Scan(
      0, table_, "row", 1,
      [&](Result<std::vector<std::pair<std::string, std::string>>> r) {
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r->size(), 1u);
        EXPECT_EQ((*r)[0].second, "old");
        scanned = true;
      });
  ASSERT_TRUE(cluster_.RunUntil([&] { return scanned; }, Seconds(10)));
  EXPECT_EQ(reads.count(), before + 1);

  // An in-flight update: SnapshotGet answers from its undo pre-image.
  TxnId txn = cluster_.writer()->Begin();
  bool put_done = false;
  cluster_.writer()->Put(txn, table_, "row", "new", [&](Status s) {
    EXPECT_TRUE(s.ok());
    put_done = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return put_done; }, Seconds(10)));
  Result<std::string> snap = Status::NotFound("");
  bool read = false;
  cluster_.writer()->SnapshotGet(0, table_, "row", [&](Result<std::string> r) {
    snap = std::move(r);
    read = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return read; }, Seconds(10)));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, "old");
  EXPECT_EQ(reads.count(), before + 2);
  bool committed = false;
  cluster_.writer()->Commit(txn, [&](Status) { committed = true; });
  ASSERT_TRUE(cluster_.RunUntil([&] { return committed; }, Seconds(10)));
}

// --- Scan ---------------------------------------------------------------------

TEST_F(EngineFeatureTest, ScanReturnsSortedDecodedRows) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok());
  }
  TxnId txn = cluster_.writer()->Begin();
  bool done = false;
  std::vector<std::pair<std::string, std::string>> rows;
  cluster_.writer()->Scan(
      txn, table_, Key(10), 15,
      [&](Result<std::vector<std::pair<std::string, std::string>>> r) {
        ASSERT_TRUE(r.ok());
        rows = std::move(*r);
        done = true;
      });
  cluster_.RunUntil([&] { return done; }, Seconds(30));
  ASSERT_EQ(rows.size(), 15u);
  EXPECT_EQ(rows[0].first, Key(10));
  EXPECT_EQ(rows[0].second, "v10");
  EXPECT_EQ(rows[14].first, Key(24));
}

// --- Determinism ----------------------------------------------------------------

TEST(DeterminismTest, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    ClusterOptions o = FeatureCluster();
    o.seed = seed;
    AuroraCluster c(o);
    EXPECT_TRUE(c.BootstrapSync().ok());
    EXPECT_TRUE(c.CreateTableSync("t").ok());
    PageId table = *c.TableAnchorSync("t");
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(c.PutSync(table, Key(i), Key(i * 7)).ok());
    }
    c.RunFor(Seconds(1));
    // A tuple of state that would diverge under any nondeterminism.
    return std::make_tuple(c.writer()->vdl(), c.writer()->next_lsn(),
                           c.loop()->now(),
                           c.network()->total().messages_sent,
                           c.network()->total().bytes_sent);
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(std::get<2>(run(1234)), std::get<2>(run(99)));
}

}  // namespace
}  // namespace aurora
