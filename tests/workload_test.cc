#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "common/crc32c.h"
#include "harness/bulk_load.h"
#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/mysql_cluster.h"
#include "harness/synthetic_table.h"
#include "page/btree.h"
#include "tests/test_util.h"
#include "workload/sysbench.h"
#include "workload/tpcc.h"

namespace aurora {
namespace {

TEST(SyntheticTableTest, LayoutCoversAllRows) {
  SyntheticTableLayout t(100, 5000, 4096, 100);
  EXPECT_EQ(t.anchor(), 100u);
  EXPECT_GT(t.page_count(), 5000u * 100 / 4096);
  // Every page in range must build; pages outside must not.
  for (PageId p = t.first_page(); p < t.end_page(); ++p) {
    Page page(4096);
    ASSERT_TRUE(t.BuildPage(p, &page)) << p;
    EXPECT_TRUE(page.IsFormatted());
    EXPECT_TRUE(page.VerifyCrc());
  }
  Page outside(4096);
  EXPECT_FALSE(t.BuildPage(t.end_page(), &outside));
  EXPECT_FALSE(t.BuildPage(99, &outside));
}

// The row-at-a-time leaf build that BuildLeaf replaced: keys and values
// materialized as strings, one InsertRecord per row, then the sibling links
// and the CRC stamp. Kept only as the oracle for the one-pass build.
Page ReferenceLeaf(const SyntheticTableLayout& t, PageId page,
                   size_t page_size) {
  const PageId first_leaf = t.LeafOf(0);
  const uint64_t leaves = t.LeafOf(t.rows() - 1) - first_leaf + 1;
  const uint64_t leaf_idx = page - first_leaf;
  Page out(page_size);
  out.Format(page, PageType::kBTreeLeaf, 0);
  const uint64_t lo = leaf_idx * t.rows_per_leaf();
  const uint64_t hi = std::min<uint64_t>(t.rows(), lo + t.rows_per_leaf());
  for (uint64_t row = lo; row < hi; ++row) {
    EXPECT_TRUE(out.InsertRecord(SyntheticTableLayout::KeyOf(row),
                                 t.StoredValueOf(row))
                    .ok());
  }
  if (leaf_idx > 0) out.set_prev_page(page - 1);
  if (leaf_idx + 1 < leaves) out.set_next_page(page + 1);
  out.UpdateCrc();
  return out;
}

TEST(SyntheticTableTest, KeyOfKnownAnswers) {
  EXPECT_EQ(SyntheticTableLayout::KeyOf(0), "key0000000000000000");
  EXPECT_EQ(SyntheticTableLayout::KeyOf(5), "key0000000000000005");
  EXPECT_EQ(SyntheticTableLayout::KeyOf(9999999999999999ull),
            "key9999999999999999");
  // Past 16 digits the key grows, exactly as "%016llu" prints it.
  EXPECT_EQ(SyntheticTableLayout::KeyOf(10000000000000000ull),
            "key10000000000000000");
  EXPECT_EQ(SyntheticTableLayout::KeyOf(UINT64_MAX),
            "key18446744073709551615");
}

TEST(SyntheticTableTest, BuildPageMatchesRowAtATimeReference) {
  struct Case {
    uint64_t rows;
    size_t page_size;
    size_t value_size;
    uint32_t digest;  // CRC32C over every page image, pinned
  };
  // 4 KiB pages of 100-byte values hold 22 rows per leaf (the benchmark's
  // shape): 21/22/23 straddle one leaf; the larger tables add internal
  // levels. The 16 KiB case has a multi-byte value-length varint.
  const Case kCases[] = {
      {1, 4096, 100, 2549276602u},
      {21, 4096, 100, 2662048511u},
      {22, 4096, 100, 3715809752u},
      {23, 4096, 100, 3540707796u},
      {25600, 4096, 100, 2211861776u},
      {102400, 4096, 100, 889948200u},
      {300001, 4096, 100, 1051552199u},
      {25600, 16384, 200, 2291912756u},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE("rows " + std::to_string(c.rows) + " page " +
                 std::to_string(c.page_size));
    SyntheticTableLayout t(7, c.rows, c.page_size, c.value_size);
    const PageId first_leaf = t.LeafOf(0);
    const PageId last_leaf = t.LeafOf(c.rows - 1);
    uint32_t digest = 0;
    uint64_t leaves_checked = 0;
    for (PageId p = t.first_page(); p < t.end_page(); ++p) {
      Page got(c.page_size);
      ASSERT_TRUE(t.BuildPage(p, &got)) << p;
      ASSERT_TRUE(got.VerifyCrc()) << p;
      digest = crc32c::Extend(digest, got.raw().data(), c.page_size);
      if (p >= first_leaf && p <= last_leaf) {
        ASSERT_EQ(got.raw(), ReferenceLeaf(t, p, c.page_size).raw())
            << "leaf " << p;
        ++leaves_checked;
      }
    }
    EXPECT_EQ(leaves_checked, last_leaf - first_leaf + 1);
    EXPECT_EQ(digest, c.digest);
  }
}

TEST(SyntheticTableTest, SynthesizedTreeIsAValidBTree) {
  // Wrap the layout in a PageProvider and run the real btree validation and
  // lookups against it.
  class SynthProvider : public testing::MemoryPageProvider {
   public:
    SynthProvider(const SyntheticTableLayout* t, size_t page_size)
        : MemoryPageProvider(page_size), t_(t) {}
    Result<Page*> GetPage(PageId id) override {
      auto it = cache_.find(id);
      if (it != cache_.end()) return &it->second;
      Page page(t_ ? 4096 : 4096);
      if (!t_->BuildPage(id, &page)) return Status::NotFound("no page");
      auto [nit, ok] = cache_.emplace(id, std::move(page));
      return &nit->second;
    }

   private:
    const SyntheticTableLayout* t_;
    std::map<PageId, Page> cache_;
  };

  SyntheticTableLayout t(1, 20000, 4096, 60);
  SynthProvider provider(&t, 4096);
  BTree tree(&provider, t.anchor());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  auto count = tree.CountForTesting();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20000u);
  for (uint64_t row : {0ull, 1ull, 9999ull, 19999ull}) {
    std::string v;
    ASSERT_TRUE(tree.Get(SyntheticTableLayout::KeyOf(row), &v).ok()) << row;
    EXPECT_EQ(v, t.StoredValueOf(row));
  }
  std::string v;
  EXPECT_TRUE(
      tree.Get(SyntheticTableLayout::KeyOf(20000), &v).IsNotFound());
}

ClusterOptions WorkloadCluster() {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 256;
  o.engine.buffer_pool_pages = 4096;
  o.storage_nodes_per_az = 3;
  return o;
}

TEST(SyntheticTableTest, AuroraReadsAndWritesPreloadedTable) {
  AuroraCluster cluster(WorkloadCluster());
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  SyntheticCatalog catalog;
  auto layout = AttachSyntheticTable(&cluster, &catalog, "big", 50000, 100);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  PageId table = (*layout)->anchor();
  // Point reads of pre-loaded rows (never written through the log!).
  auto got = cluster.GetSync(table, SyntheticTableLayout::KeyOf(31337));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, (*layout)->UserValueOf(31337));
  // Updates flow through the normal redo path on top of synthetic pages.
  ASSERT_TRUE(
      cluster.PutSync(table, SyntheticTableLayout::KeyOf(31337), "updated")
          .ok());
  EXPECT_EQ(*cluster.GetSync(table, SyntheticTableLayout::KeyOf(31337)),
            "updated");
  // Neighbours in the same leaf are unaffected.
  EXPECT_EQ(*cluster.GetSync(table, SyntheticTableLayout::KeyOf(31338)),
            (*layout)->UserValueOf(31338));
}

TEST(SyntheticTableTest, MysqlReadsAndWritesPreloadedTable) {
  MysqlClusterOptions o;
  o.mysql.engine.page_size = 4096;
  o.mysql.engine.buffer_pool_pages = 4096;
  MysqlCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  SyntheticCatalog catalog;
  auto layout =
      AttachSyntheticTableMysql(&cluster, &catalog, "big", 50000, 100);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  PageId table = (*layout)->anchor();
  auto got = cluster.GetSync(table, SyntheticTableLayout::KeyOf(777));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, (*layout)->StoredValueOf(777));
  ASSERT_TRUE(
      cluster.PutSync(table, SyntheticTableLayout::KeyOf(777), "updated").ok());
}

TEST(SysbenchTest, OltpMixRunsOnAurora) {
  AuroraCluster cluster(WorkloadCluster());
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  SyntheticCatalog catalog;
  auto layout = AttachSyntheticTable(&cluster, &catalog, "sbtest", 10000, 100);
  ASSERT_TRUE(layout.ok());
  AuroraClient client(cluster.writer());
  SysbenchOptions opts;
  opts.mode = SysbenchOptions::Mode::kOltp;
  opts.connections = 8;
  opts.table_rows = 10000;
  opts.duration = Seconds(2);
  opts.warmup = Millis(200);
  SysbenchDriver driver(cluster.loop(), &client, (*layout)->anchor(), opts);
  bool done = false;
  driver.Run([&] { done = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return done; }, Minutes(5)));
  EXPECT_GT(driver.results().txns, 100u);
  EXPECT_GT(driver.results().reads, driver.results().writes);
  // A handful of deadlock aborts (S->X upgrades colliding) is expected in
  // an OLTP mix; they must stay a tiny fraction of throughput.
  EXPECT_LT(driver.results().errors, driver.results().txns / 100 + 5);
}

TEST(SysbenchTest, WriteOnlyRunsOnMysql) {
  MysqlClusterOptions o;
  o.mysql.engine.page_size = 4096;
  o.mysql.engine.buffer_pool_pages = 4096;
  MysqlCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  SyntheticCatalog catalog;
  auto layout =
      AttachSyntheticTableMysql(&cluster, &catalog, "sbtest", 10000, 100);
  ASSERT_TRUE(layout.ok());
  MysqlClient client(cluster.db());
  SysbenchOptions opts;
  opts.mode = SysbenchOptions::Mode::kWriteOnly;
  opts.connections = 8;
  opts.table_rows = 10000;
  opts.duration = Seconds(2);
  opts.warmup = Millis(200);
  SysbenchDriver driver(cluster.loop(), &client, (*layout)->anchor(), opts);
  bool done = false;
  driver.Run([&] { done = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return done; }, Minutes(5)));
  EXPECT_GT(driver.results().txns, 20u);
}

TEST(SysbenchTest, AuroraOutpacesMysqlOnWrites) {
  // The core Table 1/2 shape at miniature scale.
  SysbenchOptions opts;
  opts.mode = SysbenchOptions::Mode::kWriteOnly;
  opts.connections = 16;
  opts.table_rows = 10000;
  opts.duration = Seconds(2);
  opts.warmup = Millis(200);

  AuroraCluster ac(WorkloadCluster());
  ASSERT_TRUE(ac.BootstrapSync().ok());
  SyntheticCatalog cat_a;
  auto la = AttachSyntheticTable(&ac, &cat_a, "t", 10000, 100);
  AuroraClient aclient(ac.writer());
  SysbenchDriver ad(ac.loop(), &aclient, (*la)->anchor(), opts);
  bool adone = false;
  ad.Run([&] { adone = true; });
  ASSERT_TRUE(ac.RunUntil([&] { return adone; }, Minutes(5)));

  MysqlClusterOptions mo;
  mo.mysql.engine.page_size = 4096;
  mo.mysql.engine.buffer_pool_pages = 4096;
  MysqlCluster mc(mo);
  ASSERT_TRUE(mc.BootstrapSync().ok());
  SyntheticCatalog cat_m;
  auto lm = AttachSyntheticTableMysql(&mc, &cat_m, "t", 10000, 100);
  MysqlClient mclient(mc.db());
  SysbenchDriver md(mc.loop(), &mclient, (*lm)->anchor(), opts);
  bool mdone = false;
  md.Run([&] { mdone = true; });
  ASSERT_TRUE(mc.RunUntil([&] { return mdone; }, Minutes(5)));

  EXPECT_GT(ad.results().writes_per_sec(), md.results().writes_per_sec() * 2)
      << "aurora " << ad.results().writes_per_sec() << " vs mysql "
      << md.results().writes_per_sec();
}

TEST(TpccTest, MixRunsAndCommitsNewOrders) {
  AuroraCluster cluster(WorkloadCluster());
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  TpccTables tables;
  for (const char* name : {"warehouse", "district", "customer", "stock",
                           "orders"}) {
    ASSERT_TRUE(cluster.CreateTableSync(name).ok());
  }
  tables.warehouse = *cluster.TableAnchorSync("warehouse");
  tables.district = *cluster.TableAnchorSync("district");
  tables.customer = *cluster.TableAnchorSync("customer");
  tables.stock = *cluster.TableAnchorSync("stock");
  tables.orders = *cluster.TableAnchorSync("orders");

  AuroraClient client(cluster.writer());
  TpccOptions opts;
  opts.warehouses = 4;
  opts.connections = 16;
  opts.customers_per_district = 10;
  opts.stock_items = 100;
  opts.duration = Seconds(2);
  opts.warmup = Millis(200);
  TpccDriver driver(cluster.loop(), &client, tables, opts);
  Status load_status = Status::TimedOut("load");
  bool loaded = false;
  driver.Load([&](Status s) {
    load_status = s;
    loaded = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return loaded; }, Minutes(10)));
  ASSERT_TRUE(load_status.ok()) << load_status.ToString();

  bool done = false;
  driver.Run([&] { done = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return done; }, Minutes(10)));
  EXPECT_GT(driver.results().new_orders, 10u);
  EXPECT_GT(driver.results().payments, 10u);
  EXPECT_GT(driver.results().tpmC(), 0.0);
}

}  // namespace
}  // namespace aurora
