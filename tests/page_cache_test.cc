#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness/bulk_load.h"
#include "harness/cluster.h"
#include "harness/synthetic_table.h"
#include "storage/segment.h"

namespace aurora {
namespace {

// Same chain shape as segment_test.cc: record i gets lsn base+i*10, backlink
// to its predecessor, targeting page (i % pages), format on first touch.
std::vector<LogRecord> MakeChain(int n, Lsn base = 100, int pages = 4) {
  std::vector<LogRecord> records;
  Lsn prev = kInvalidLsn;
  Lsn vprev = kInvalidLsn;
  for (int i = 0; i < n; ++i) {
    LogRecord r;
    r.lsn = base + static_cast<Lsn>(i) * 10;
    r.prev_pg_lsn = prev;
    r.prev_vol_lsn = vprev;
    r.page_id = static_cast<PageId>(i % pages);
    r.txn_id = 1;
    if (i % pages == i) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    } else {
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(
          "k" + std::to_string(i), "v" + std::to_string(i));
    }
    if (i % 3 == 2) r.flags = kFlagCpl;
    prev = r.lsn;
    vprev = r.lsn;
    records.push_back(std::move(r));
  }
  return records;
}

// A cached segment and a cache-disabled control driven with identical
// inputs; the cache must be invisible in every observable way.
struct SegmentPair {
  Segment cached;
  Segment control;
  explicit SegmentPair(size_t page_size = 4096,
                       uint64_t budget = 64 * 4096)
      : cached(0, page_size), control(0, page_size) {
    cached.set_page_cache_budget(budget);
  }
  void Add(const std::vector<LogRecord>& records) {
    for (const auto& r : records) {
      cached.AddRecord(r);
      control.AddRecord(r);
    }
  }
  // Reads both segments at (page, rp) and requires identical outcomes.
  void ExpectSameRead(PageId page, Lsn rp) {
    Result<Page> a = cached.GetPageAsOf(page, rp);
    Result<Page> b = control.GetPageAsOf(page, rp);
    ASSERT_EQ(a.ok(), b.ok()) << "page " << page << " @" << rp << ": "
                              << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(a->raw(), b->raw()) << "page " << page << " @" << rp;
    } else {
      EXPECT_EQ(a.status().code(), b.status().code())
          << "page " << page << " @" << rp;
    }
  }
};

TEST(PageCacheTest, FullHitServesIdenticalBytesWithoutReplay) {
  SegmentPair pair;
  pair.Add(MakeChain(12));
  const Lsn rp = pair.control.scl();

  pair.ExpectSameRead(0, rp);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);

  pair.ExpectSameRead(0, rp);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);
  // The control's stats stay untouched (its cache is disabled).
  EXPECT_EQ(pair.control.page_cache_stats().misses, 0u);
  EXPECT_EQ(pair.control.page_cache_bytes(), 0u);
}

TEST(PageCacheTest, PartialHitReplaysOnlyTheSuffix) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  // Build the entry at a mid-chain read point, then read at the tip: only
  // the records in between should be replayed on top of the cached image.
  pair.ExpectSameRead(0, records[7].lsn);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().partial_hits, 1u);
  // The partial hit re-tagged the entry at the tip: reading there again is
  // now a full hit.
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
}

TEST(PageCacheTest, HistoricalReadBypassesWithoutDisplacingNewerEntry) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);  // miss, entry built at tip
  pair.ExpectSameRead(0, records[4].lsn);  // historical: bypass
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 2u);
  // The newer entry survived the historical read.
  pair.ExpectSameRead(0, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
}

TEST(PageCacheTest, LruEvictionRespectsByteBudget) {
  // Budget for exactly two cached pages.
  SegmentPair pair(4096, 2 * 4096);
  pair.Add(MakeChain(16));
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);
  pair.ExpectSameRead(1, tip);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 2 * 4096u);
  pair.ExpectSameRead(2, tip);  // evicts page 0 (least recently used)
  EXPECT_EQ(pair.cached.page_cache_bytes(), 2 * 4096u);
  EXPECT_EQ(pair.cached.page_cache_stats().evictions, 1u);
  // Page 0 is a miss again; page 2 is a hit.
  pair.ExpectSameRead(2, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
  pair.ExpectSameRead(0, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 4u);
}

TEST(PageCacheTest, BudgetBelowPageSizeDisablesCaching) {
  SegmentPair pair(4096, 4095);
  pair.Add(MakeChain(8));
  pair.ExpectSameRead(0, pair.control.scl());
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 0u);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 0u);
}

TEST(PageCacheTest, ShrinkingBudgetEvictsImmediately) {
  SegmentPair pair;
  pair.Add(MakeChain(16));
  const Lsn tip = pair.control.scl();
  for (PageId p = 0; p < 4; ++p) pair.ExpectSameRead(p, tip);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 4 * 4096u);
  pair.cached.set_page_cache_budget(2 * 4096);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 2 * 4096u);
  pair.cached.set_page_cache_budget(0);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 0u);
}

TEST(PageCacheTest, LateRecordAtOrBelowBuildPointInvalidates) {
  // Serve a read point beyond the chain tip via a completeness snapshot,
  // then let a new record arrive below that build point: the cached image
  // was built without it and must be dropped, not partially replayed.
  SegmentPair pair;
  auto records = MakeChain(8);
  for (int i = 0; i < 4; ++i) {
    pair.cached.AddRecord(records[i]);
    pair.control.AddRecord(records[i]);
  }
  const Lsn snapshot_vdl = records[7].lsn + 100;
  pair.cached.SetCompletenessSnapshot(snapshot_vdl, pair.control.scl());
  pair.control.SetCompletenessSnapshot(snapshot_vdl, pair.control.scl());

  pair.ExpectSameRead(0, snapshot_vdl);  // entry built at snapshot_vdl
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);

  // records[4] targets page 0 and has lsn <= the build point.
  ASSERT_EQ(records[4].page_id, 0u);
  ASSERT_LE(records[4].lsn, snapshot_vdl);
  pair.cached.AddRecord(records[4]);
  pair.control.AddRecord(records[4]);

  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 2u);  // entry was dropped
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);
}

TEST(PageCacheTest, TruncationDropsEntriesBuiltAboveTheCut) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);  // entry built at tip
  const Lsn cut = records[7].lsn;
  ASSERT_TRUE(pair.cached.Truncate(cut, 1).ok());
  ASSERT_TRUE(pair.control.Truncate(cut, 1).ok());
  // A read at the (clamped) scl must rebuild — the old image contained
  // truncated records.
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 2u);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);
}

TEST(PageCacheTest, GcDropsStrandedEntriesButKeepsCurrentOnes) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn tip = pair.control.scl();
  // An entry built early in the chain (missing page 0's later records)...
  pair.ExpectSameRead(0, records[5].lsn);
  // ...and one built at the tip (reflecting everything for page 3).
  pair.ExpectSameRead(3, tip);
  // Materialize and GC everything up to records[11]: page 0's records in
  // (records[5], records[11]] vanish from the hot log, so the early entry
  // can't be patched by partial replay any more and must be dropped. Page
  // 3's tip entry already reflects every collected record and survives.
  const Lsn floor = records[11].lsn;
  for (Segment* seg : {&pair.cached, &pair.control}) {
    seg->SetVdlHint(floor);
    seg->SetPgmrpl(floor);
    seg->CoalesceStep(1000);
    seg->GarbageCollect();
  }
  pair.ExpectSameRead(0, pair.control.scl());
  pair.ExpectSameRead(0, floor);
  EXPECT_EQ(pair.cached.page_cache_stats().partial_hits, 0u);
  // The tip entry for page 3 still serves.
  const uint64_t hits_before = pair.cached.page_cache_stats().hits;
  pair.ExpectSameRead(3, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, hits_before + 1);
}

TEST(PageCacheTest, DropForRepairAndRestoreInvalidate) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn limit = records[11].lsn;
  for (Segment* seg : {&pair.cached, &pair.control}) {
    seg->SetVdlHint(limit);
    seg->SetPgmrpl(limit);
    seg->CoalesceStep(1000);
  }
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);  // cache it
  pair.cached.DropPageForRepair(0);
  pair.control.DropPageForRepair(0);
  pair.ExpectSameRead(0, tip);  // rebuilt from log, not served stale

  // Restore a healthy copy (as scrub repair does) and re-read.
  Result<Page> healthy = pair.control.GetPageAsOf(0, pair.control.applied_lsn());
  ASSERT_TRUE(healthy.ok());
  pair.ExpectSameRead(0, tip);  // cache it again
  pair.cached.RestoreBasePage(0, *healthy);
  pair.control.RestoreBasePage(0, *healthy);
  pair.ExpectSameRead(0, tip);
  pair.ExpectSameRead(0, pair.control.applied_lsn());
}

// Every image GetPageAsOf returns carries a valid CRC, whichever source it
// came from, with the cache on (param true) and off. The segment re-stamps
// only images it replayed records onto: a base image has just been
// verified, and a synthesized one arrives stamped.
class PageFetchCrcTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Cache, PageFetchCrcTest, ::testing::Bool());

TEST_P(PageFetchCrcTest, EverySourceReturnsAStampedImage) {
  constexpr PageId kSynth = 9;
  Segment seg(0, 4096);
  if (GetParam()) seg.set_page_cache_budget(64 * 4096);
  seg.set_page_synthesizer([](PageId id, Page* out) {
    if (id != kSynth) return false;
    out->Format(id, PageType::kBTreeLeaf, 0);
    EXPECT_TRUE(out->InsertRecord("synth", "row").ok());
    out->UpdateCrc();
    return true;
  });
  auto expect_stamped = [&](PageId page, Lsn rp, const char* source) {
    Result<Page> got = seg.GetPageAsOf(page, rp);
    ASSERT_TRUE(got.ok()) << source << ": " << got.status().ToString();
    EXPECT_TRUE(got->VerifyCrc()) << source;
  };
  auto records = MakeChain(16);  // pages 0..3, record i on page i % 4
  for (int i = 0; i < 12; ++i) seg.AddRecord(records[i]);

  expect_stamped(kSynth, seg.scl(), "synthesized, no replay");
  expect_stamped(kSynth, seg.scl(), "synthesized, cache hit");
  expect_stamped(1, records[5].lsn, "full replay");
  expect_stamped(1, records[5].lsn, "cache hit");
  expect_stamped(1, records[9].lsn, "partial replay");

  // Materialize and collect page 2's records: its base image alone is the
  // page, and it is served without replay.
  const Lsn floor = records[11].lsn;
  seg.SetVdlHint(floor);
  seg.SetPgmrpl(floor);
  seg.CoalesceStep(1000);
  seg.GarbageCollect();
  expect_stamped(2, floor, "base, no replay");
  expect_stamped(2, floor, "base, cache hit");
  for (int i = 12; i < 16; ++i) seg.AddRecord(records[i]);
  expect_stamped(3, seg.scl(), "base + replay");
  expect_stamped(2, seg.scl(), "base, partial replay");

  const PageCacheStats& stats = seg.page_cache_stats();
  if (GetParam()) {
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.partial_hits, 2u);
  } else {
    EXPECT_EQ(stats.hits + stats.partial_hits + stats.misses, 0u);
  }
}

// The PageSynthesizer contract is that images arrive stamped: the segment
// serves a synthesized image as built, so a synthesizer that breaks the
// contract is caught by the reader's VerifyCrc rather than hidden under a
// fresh CRC.
TEST_P(PageFetchCrcTest, SynthesizedImageIsServedAsBuilt) {
  Segment seg(0, 4096);
  if (GetParam()) seg.set_page_cache_budget(64 * 4096);
  seg.set_page_synthesizer([](PageId id, Page* out) {
    out->Format(id, PageType::kBTreeLeaf, 0);
    EXPECT_TRUE(out->InsertRecord("synth", "row").ok());
    out->UpdateCrc();
    out->CorruptForTesting(2000);
    return true;
  });
  auto records = MakeChain(4);
  for (const auto& r : records) seg.AddRecord(r);
  Result<Page> got = seg.GetPageAsOf(7, seg.scl());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->VerifyCrc());
}

// End to end: a storage node answers a page read with a valid frame (the
// fabric stamps the frame CRC over the bytes it was given) around an image
// with one flipped byte. The writer and the read replica must both reject
// the image and fetch the page from another segment replica.
TEST(PageFetchCrcTest, FlippedPageByteIsRejectedAndRetriedElsewhere) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 256;
  o.engine.buffer_pool_pages = 4096;
  o.storage_nodes_per_az = 3;
  o.num_replicas = 1;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  SyntheticCatalog catalog;
  auto layout = AttachSyntheticTable(&cluster, &catalog, "t", 5000, 100);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  const SyntheticTableLayout* t = *layout;
  constexpr uint64_t kWriterRow = 100;
  constexpr uint64_t kReplicaRow = 4000;
  const PageId writer_leaf = t->LeafOf(kWriterRow);
  const PageId replica_leaf = t->LeafOf(kReplicaRow);
  ASSERT_NE(writer_leaf, replica_leaf);

  // The first image built of either leaf, on whichever storage node serves
  // it first, gets one byte flipped after its CRC stamp; later builds (on
  // the other segment replicas) are clean.
  std::map<PageId, int> builds;
  cluster.control_plane()->SetPageSynthesizer(
      [&](PageId page, Page* out) {
        if (!catalog.BuildPage(page, out)) return false;
        if ((page == writer_leaf || page == replica_leaf) &&
            builds[page]++ == 0) {
          out->CorruptForTesting(2000);
        }
        return true;
      });

  auto got = cluster.GetSync(t->anchor(), SyntheticTableLayout::KeyOf(kWriterRow));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, t->UserValueOf(kWriterRow));
  EXPECT_GE(builds[writer_leaf], 2) << "the writer accepted a corrupt image";
  EXPECT_GE(cluster.writer()->stats().read_retry_depth.max(), 1u);

  cluster.RunFor(Millis(50));
  auto replica_got = cluster.ReplicaGetSync(
      0, t->anchor(), SyntheticTableLayout::KeyOf(kReplicaRow));
  ASSERT_TRUE(replica_got.ok()) << replica_got.status().ToString();
  EXPECT_EQ(*replica_got, t->UserValueOf(kReplicaRow));
  EXPECT_GE(builds[replica_leaf], 2) << "the replica accepted a corrupt image";
}

// Property test: a randomized schedule of writes (with gaps), watermark
// advances, coalescing, GC, truncation, and page repair must produce
// byte-identical pages and identical error statuses with the cache on vs.
// off at every probed (page, read_point).
class PageCacheEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheEquivalenceTest,
                         ::testing::Values(1, 17, 4242, 987654));

TEST_P(PageCacheEquivalenceTest, RandomScheduleMatchesCacheOffControl) {
  constexpr int kPages = 6;
  constexpr int kSteps = 400;
  Random rng(GetParam());

  // Small budget so eviction churns; the control has caching disabled.
  SegmentPair pair(2048, 3 * 2048);

  Lsn next_lsn = 100;
  Lsn chain_tail = kInvalidLsn;
  Epoch epoch = 0;
  std::vector<Lsn> delivered;
  std::vector<LogRecord> pending;          // generated, not yet delivered
  Lsn format_lsn[kPages] = {};             // 0 = page not (re)formatted

  auto generate = [&] {
    LogRecord r;
    r.lsn = next_lsn;
    next_lsn += 10;
    r.prev_pg_lsn = chain_tail;
    r.prev_vol_lsn = chain_tail;
    chain_tail = r.lsn;
    r.page_id = static_cast<PageId>(rng.Uniform(kPages));
    r.txn_id = 1;
    if (format_lsn[r.page_id] == 0) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
      format_lsn[r.page_id] = r.lsn;
    } else {
      // Keys are unique per record (the writer emits kUpdate, never a
      // duplicate kInsert, for an existing key).
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(
          "k" + std::to_string(r.lsn), "v" + std::to_string(r.lsn));
    }
    if (rng.Uniform(3) == 0) r.flags = kFlagCpl;
    pending.push_back(std::move(r));
  };

  auto deliver_random_pending = [&] {
    if (pending.empty()) return;
    size_t i = rng.Uniform(pending.size());
    LogRecord r = pending[i];
    pending.erase(pending.begin() + static_cast<long>(i));
    if (pair.cached.AddRecord(r)) delivered.push_back(r.lsn);
    pair.control.AddRecord(r);
  };

  auto random_delivered_lsn = [&]() -> Lsn {
    if (delivered.empty()) return 100;
    return delivered[rng.Uniform(delivered.size())];
  };

  for (int step = 0; step < kSteps; ++step) {
    uint64_t op = rng.Uniform(100);
    if (op < 35) {
      generate();
      deliver_random_pending();
    } else if (op < 55) {
      deliver_random_pending();
    } else if (op < 65) {
      Lsn hint = random_delivered_lsn();
      pair.cached.SetVdlHint(hint);
      pair.control.SetVdlHint(hint);
    } else if (op < 72) {
      Lsn hint = random_delivered_lsn();
      pair.cached.SetPgmrpl(hint);
      pair.control.SetPgmrpl(hint);
    } else if (op < 82) {
      size_t n = rng.Uniform(20) + 1;
      size_t a = pair.cached.CoalesceStep(n);
      size_t b = pair.control.CoalesceStep(n);
      ASSERT_EQ(a, b);
    } else if (op < 88) {
      ASSERT_EQ(pair.cached.GarbageCollect(), pair.control.GarbageCollect());
    } else if (op < 93) {
      // Truncate at or above the applied floor (the segment CHECKs that).
      Lsn above = std::max(pair.control.applied_lsn(),
                           random_delivered_lsn());
      ++epoch;
      Status sa = pair.cached.Truncate(above, epoch);
      Status sb = pair.control.Truncate(above, epoch);
      ASSERT_EQ(sa.code(), sb.code());
      // Annulled: pending records above the cut and format knowledge for
      // pages whose format record was removed.
      std::vector<LogRecord> kept;
      for (auto& r : pending) {
        if (r.lsn <= above) kept.push_back(std::move(r));
      }
      pending.swap(kept);
      std::vector<Lsn> kept_lsns;
      for (Lsn l : delivered) {
        if (l <= above) kept_lsns.push_back(l);
      }
      delivered.swap(kept_lsns);
      for (int p = 0; p < kPages; ++p) {
        if (format_lsn[p] > above) format_lsn[p] = 0;
      }
      if (chain_tail > above) chain_tail = pair.control.scl();
    } else if (op < 97) {
      PageId page = static_cast<PageId>(rng.Uniform(kPages));
      pair.cached.DropPageForRepair(page);
      pair.control.DropPageForRepair(page);
    } else {
      // Peer repair: install the control's reconstruction into both.
      PageId page = static_cast<PageId>(rng.Uniform(kPages));
      Result<Page> healthy =
          pair.control.GetPageAsOf(page, pair.control.applied_lsn());
      if (healthy.ok()) {
        pair.cached.RestoreBasePage(page, *healthy);
        pair.control.RestoreBasePage(page, *healthy);
      }
    }

    // Probe: every page at a few read points spanning complete, historical,
    // stale, and incomplete cases.
    const Lsn probes[] = {pair.control.scl(), pair.control.applied_lsn(),
                          random_delivered_lsn(),
                          pair.control.scl() + 1 + rng.Uniform(50)};
    for (PageId page = 0; page < kPages; ++page) {
      for (Lsn rp : probes) {
        if (rp == kInvalidLsn) continue;
        pair.ExpectSameRead(page, rp);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ASSERT_LE(pair.cached.page_cache_bytes(),
              pair.cached.page_cache_budget());
  }

  // The schedule must actually have exercised the cache.
  EXPECT_GT(pair.cached.page_cache_stats().hits, 0u);
  EXPECT_GT(pair.cached.page_cache_stats().misses, 0u);
}

}  // namespace
}  // namespace aurora
