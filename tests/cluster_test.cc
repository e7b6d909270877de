#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/cluster.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

ClusterOptions SmallCluster() {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 1024;
  o.storage_nodes_per_az = 3;
  return o;
}

class AuroraClusterTest : public ::testing::Test {
 protected:
  AuroraClusterTest() : cluster_(SmallCluster()) {
    EXPECT_TRUE(cluster_.BootstrapSync().ok());
    EXPECT_TRUE(cluster_.CreateTableSync("t").ok());
    auto anchor = cluster_.TableAnchorSync("t");
    EXPECT_TRUE(anchor.ok());
    table_ = *anchor;
  }

  AuroraCluster cluster_;
  PageId table_ = kInvalidPage;
};

TEST_F(AuroraClusterTest, BootstrapCreatesDurableVolume) {
  EXPECT_GT(cluster_.writer()->vdl(), 0u);
  EXPECT_GE(cluster_.control_plane()->num_pgs(), 1u);
}

// RunUntil advances one event at a time, so the clock stops at the event that
// made the predicate true — never past it. recovery_ms and every *Sync
// latency read the clock right after RunUntil returns.
TEST_F(AuroraClusterTest, RunUntilStopsAtThePredicateEvent) {
  cluster_.RunFor(Millis(10));  // let the writer's vCPUs drain
  bool fired = false;
  const SimTime t = cluster_.loop()->now() + Micros(37);
  cluster_.writer_instance()->Execute(Micros(37), [&fired] { fired = true; });
  ASSERT_TRUE(cluster_.RunUntil([&] { return fired; }, Seconds(1)));
  EXPECT_EQ(cluster_.loop()->now(), t);
}

TEST_F(AuroraClusterTest, PutThenGetRoundTrip) {
  ASSERT_TRUE(cluster_.PutSync(table_, "hello", "world").ok());
  auto got = cluster_.GetSync(table_, "hello");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "world");
  EXPECT_TRUE(cluster_.GetSync(table_, "missing").status().IsNotFound());
}

TEST_F(AuroraClusterTest, CommitWaitsForWriteQuorum) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v").ok());
  // After a committed write, at least a write quorum of segment replicas
  // must hold every record up to the VDL.
  Lsn vdl = cluster_.writer()->vdl();
  const PgMembership& members = cluster_.control_plane()->membership(0);
  int complete = 0;
  for (sim::NodeId node : members.nodes) {
    StorageNode* sn = cluster_.storage_node_by_id(node);
    ASSERT_NE(sn, nullptr);
    const Segment* seg = sn->segment(0);
    ASSERT_NE(seg, nullptr);
    if (seg->scl() >= vdl) ++complete;
  }
  EXPECT_GE(complete, 4);
}

TEST_F(AuroraClusterTest, ManyWritesAndReadBack) {
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok())
        << i;
  }
  for (int i = 0; i < n; ++i) {
    auto got = cluster_.GetSync(table_, Key(i));
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
  EXPECT_EQ(cluster_.writer()->stats().txns_committed, 2u * n);
}

TEST_F(AuroraClusterTest, DeleteRemovesRow) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v").ok());
  ASSERT_TRUE(cluster_.DeleteSync(table_, "k").ok());
  EXPECT_TRUE(cluster_.GetSync(table_, "k").status().IsNotFound());
  EXPECT_TRUE(cluster_.DeleteSync(table_, "k").IsNotFound());
}

TEST_F(AuroraClusterTest, OnlyLogRecordsCrossTheNetworkToStorage) {
  cluster_.network()->ResetStats();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), std::string(100, 'x')).ok());
  }
  // The writer never ships pages on the write path: its outbound bytes are
  // log batches (6-way fan-out), far below 6 * pages-touched * page-size.
  const sim::NetStats& writer_net =
      cluster_.network()->stats_of(cluster_.writer_node());
  uint64_t bytes_if_pages =
      6ull * 50 * 2 * cluster_.writer()->options().page_size;
  EXPECT_LT(writer_net.bytes_sent, bytes_if_pages / 4);
}

TEST_F(AuroraClusterTest, WriteBatchBodyEncodedOncePerAttempt) {
  const EngineStats& s = cluster_.writer()->stats();
  const uint64_t saved_after_bootstrap = s.batch_encode_bytes_saved;
  ASSERT_TRUE(cluster_.PutSync(table_, "k1", "v1").ok());
  ASSERT_TRUE(cluster_.PutSync(table_, "k2", "v2").ok());
  // Every batch attempt serializes the body once and shares it across the
  // un-acked replicas, so with all six replicas healthy each attempt saves
  // exactly (kReplicasPerPg - 1) re-encodes of the body.
  const uint64_t saved = s.batch_encode_bytes_saved - saved_after_bootstrap;
  EXPECT_GT(saved, 0u);
  EXPECT_EQ(saved % (kReplicasPerPg - 1), 0u);
  // The metric is exported under the engine namespace.
  MetricsSnapshot snap = cluster_.metrics()->Snapshot();
  auto it = snap.counters.find("engine.writer.batch_encode_bytes_saved");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_EQ(it->second, s.batch_encode_bytes_saved);
}

TEST_F(AuroraClusterTest, SteadyStateReadsHitThePageCache) {
  // A tiny buffer pool forces evictions, so re-reads fetch the same pages
  // from storage over and over — the reconstruction cache should serve the
  // repeats without replaying the log.
  ClusterOptions o = SmallCluster();
  o.engine.buffer_pool_pages = 16;
  AuroraCluster small(o);
  ASSERT_TRUE(small.BootstrapSync().ok());
  ASSERT_TRUE(small.CreateTableSync("t").ok());
  PageId table = *small.TableAnchorSync("t");
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(small.PutSync(table, Key(i), std::string(200, 'x')).ok());
  }
  small.RunFor(Seconds(1));
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < n; ++i) {
      auto got = small.GetSync(table, Key(i));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
    }
  }
  PageCacheStats fleet;
  for (size_t i = 0; i < small.num_storage_nodes(); ++i) {
    PageCacheStats s = small.storage_node(i)->PageCacheTotals();
    fleet.hits += s.hits;
    fleet.partial_hits += s.partial_hits;
    fleet.misses += s.misses;
  }
  EXPECT_GT(fleet.hits + fleet.partial_hits, 0u);
  // And the fleet-wide metric is exported.
  MetricsSnapshot snap = small.metrics()->Snapshot();
  auto it = snap.counters.find("storage.page_cache.hits");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_EQ(it->second, fleet.hits);
}

TEST_F(AuroraClusterTest, TransactionRollbackRestoresOldValues) {
  ASSERT_TRUE(cluster_.PutSync(table_, "a", "original").ok());
  TxnId txn = cluster_.writer()->Begin();
  bool put_done = false;
  cluster_.writer()->Put(txn, table_, "a", "modified",
                         [&](Status s) {
                           EXPECT_TRUE(s.ok());
                           put_done = true;
                         });
  cluster_.RunUntil([&] { return put_done; }, Seconds(10));
  bool rolled_back = false;
  cluster_.writer()->Rollback(txn, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    rolled_back = true;
  });
  cluster_.RunUntil([&] { return rolled_back; }, Seconds(10));
  auto got = cluster_.GetSync(table_, "a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "original");
}

TEST_F(AuroraClusterTest, RollbackOfInsertDeletesRow) {
  TxnId txn = cluster_.writer()->Begin();
  bool done = false;
  cluster_.writer()->Put(txn, table_, "fresh", "value", [&](Status s) {
    EXPECT_TRUE(s.ok());
    cluster_.writer()->Rollback(txn, [&](Status rs) {
      EXPECT_TRUE(rs.ok());
      done = true;
    });
  });
  cluster_.RunUntil([&] { return done; }, Seconds(10));
  EXPECT_TRUE(cluster_.GetSync(table_, "fresh").status().IsNotFound());
}

TEST_F(AuroraClusterTest, MultiStatementTransactionIsAtomic) {
  TxnId txn = cluster_.writer()->Begin();
  int pending = 3;
  bool committed = false;
  for (int i = 0; i < 3; ++i) {
    cluster_.writer()->Put(txn, table_, "multi" + std::to_string(i), "v",
                           [&](Status s) {
                             EXPECT_TRUE(s.ok());
                             if (--pending == 0) {
                               cluster_.writer()->Commit(txn, [&](Status cs) {
                                 EXPECT_TRUE(cs.ok());
                                 committed = true;
                               });
                             }
                           });
  }
  cluster_.RunUntil([&] { return committed; }, Seconds(10));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cluster_.GetSync(table_, "multi" + std::to_string(i)).ok());
  }
}

TEST_F(AuroraClusterTest, EvictionRespectsVdlRule) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), std::string(200, 'x')).ok());
  }
  cluster_.RunFor(Millis(100));
  // Every cached page above the VDL is unevictable; after quiescing, all
  // writes are durable so no page should be above the VDL.
  EXPECT_EQ(cluster_.writer()->buffer_pool()->CountAboveVdl(), 0u);
}

TEST_F(AuroraClusterTest, CacheMissFetchesPageFromStorage) {
  // Write enough rows to overflow a tiny buffer pool, forcing evictions and
  // storage fetches on re-read.
  ClusterOptions o = SmallCluster();
  o.engine.buffer_pool_pages = 16;
  AuroraCluster small(o);
  ASSERT_TRUE(small.BootstrapSync().ok());
  ASSERT_TRUE(small.CreateTableSync("t").ok());
  PageId table = *small.TableAnchorSync("t");
  const int n = 800;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        small.PutSync(table, Key(i), std::string(200, 'a' + i % 26)).ok())
        << i;
  }
  small.RunFor(Seconds(1));
  uint64_t fetches_before = small.writer()->stats().storage_page_reads;
  for (int i = 0; i < n; ++i) {
    auto got = small.GetSync(table, Key(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, std::string(200, 'a' + i % 26));
  }
  EXPECT_GT(small.writer()->stats().storage_page_reads, fetches_before);
  EXPECT_GT(small.writer()->buffer_pool()->stats().evictions, 0u);
}

TEST_F(AuroraClusterTest, StorageNodesMaterializePagesInBackground) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  // Let PGMRPL propagate and coalescing run.
  cluster_.RunFor(Seconds(2));
  uint64_t coalesced = 0;
  for (size_t i = 0; i < cluster_.num_storage_nodes(); ++i) {
    coalesced += cluster_.storage_node(i)->stats().records_coalesced;
  }
  EXPECT_GT(coalesced, 0u);
}

TEST_F(AuroraClusterTest, GarbageCollectionShrinksHotLog) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  cluster_.RunFor(Seconds(3));
  uint64_t gced = 0;
  for (size_t i = 0; i < cluster_.num_storage_nodes(); ++i) {
    gced += cluster_.storage_node(i)->stats().records_gced;
  }
  EXPECT_GT(gced, 0u);
}

TEST_F(AuroraClusterTest, BackupsReachS3) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  cluster_.RunFor(Seconds(2));
  EXPECT_GT(cluster_.s3()->num_objects(), 0u);
}

}  // namespace
}  // namespace aurora
