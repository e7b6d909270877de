#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "log/applicator.h"
#include "storage/segment.h"
#include "storage/wire.h"

namespace aurora {
namespace {

// Builds a valid per-PG record chain: record i gets lsn base+i*10, backlink
// to its predecessor, targeting page (i % pages).
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

TEST(SegmentTest, SclAdvancesOnlyOverContiguousChain) {
  Segment seg(0, 4096);
  auto records = MakeChain(10);
  // Deliver 0,1,2 then 5,6 (gap at 3,4), then fill the hole.
  for (int i : {0, 1, 2}) seg.AddRecord(records[i]);
  EXPECT_EQ(seg.scl(), records[2].lsn);
  for (int i : {5, 6}) seg.AddRecord(records[i]);
  EXPECT_EQ(seg.scl(), records[2].lsn);
  EXPECT_TRUE(seg.has_gap());
  EXPECT_EQ(seg.max_lsn(), records[6].lsn);
  seg.AddRecord(records[4]);
  EXPECT_EQ(seg.scl(), records[2].lsn);  // still missing 3
  seg.AddRecord(records[3]);
  EXPECT_EQ(seg.scl(), records[6].lsn);  // chain healed through 6
  EXPECT_FALSE(seg.has_gap());
}

TEST(SegmentTest, DuplicateRecordsIgnored) {
  Segment seg(0, 4096);
  auto records = MakeChain(5);
  for (const auto& r : records) EXPECT_TRUE(seg.AddRecord(r));
  for (const auto& r : records) EXPECT_FALSE(seg.AddRecord(r));
  EXPECT_EQ(seg.hot_log_size(), 5u);
}

TEST(SegmentTest, RecordsAboveReturnsOrderedSuffix) {
  Segment seg(0, 4096);
  auto records = MakeChain(10);
  for (const auto& r : records) seg.AddRecord(r);
  auto above = seg.RecordsAbove(records[4].lsn, 100);
  ASSERT_EQ(above.size(), 5u);
  EXPECT_EQ(above[0]->lsn, records[5].lsn);
  auto capped = seg.RecordsAbove(kInvalidLsn, 3);
  EXPECT_EQ(capped.size(), 3u);
}

TEST(SegmentTest, CoalesceRespectsWatermarks) {
  Segment seg(0, 4096);
  auto records = MakeChain(9);
  for (const auto& r : records) seg.AddRecord(r);
  // No VDL hint, no PGMRPL: nothing may materialize.
  EXPECT_EQ(seg.CoalesceStep(100), 0u);
  seg.SetVdlHint(records[5].lsn);
  EXPECT_EQ(seg.CoalesceStep(100), 0u);  // PGMRPL still zero
  seg.SetPgmrpl(records[5].lsn);
  EXPECT_EQ(seg.CoalesceStep(100), 6u);  // records 0..5
  EXPECT_EQ(seg.applied_lsn(), records[5].lsn);
  EXPECT_GT(seg.num_pages(), 0u);
}

TEST(SegmentTest, GetPageAsOfReconstructsHistoricalVersions) {
  Segment seg(0, 4096);
  // One page, three inserts at lsn 100, 110, 120.
  std::vector<LogRecord> records;
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < 3; ++i) {
    LogRecord r;
    r.lsn = 100 + i * 10;
    r.prev_pg_lsn = prev;
    r.page_id = 7;
    r.op = i == 0 ? RedoOp::kFormatPage : RedoOp::kInsert;
    r.payload = i == 0
                    ? LogRecord::MakeFormatPayload(
                          static_cast<uint8_t>(PageType::kBTreeLeaf), 0)
                    : LogRecord::MakeKeyValuePayload("k" + std::to_string(i),
                                                     "v");
    r.flags = kFlagCpl;
    prev = r.lsn;
    records.push_back(std::move(r));
    seg.AddRecord(records.back());
  }
  seg.SetVdlHint(120);
  auto v100 = seg.GetPageAsOf(7, 100);
  ASSERT_TRUE(v100.ok());
  EXPECT_EQ(v100->slot_count(), 0);
  auto v110 = seg.GetPageAsOf(7, 115);
  ASSERT_TRUE(v110.ok());
  EXPECT_EQ(v110->slot_count(), 1);
  auto v120 = seg.GetPageAsOf(7, 120);
  ASSERT_TRUE(v120.ok());
  EXPECT_EQ(v120->slot_count(), 2);
  // Beyond the SCL: this replica can't vouch for completeness.
  EXPECT_TRUE(seg.GetPageAsOf(7, 500).status().IsUnavailable());
  // Unknown page.
  EXPECT_TRUE(seg.GetPageAsOf(99, 110).status().IsNotFound());
}

TEST(SegmentTest, CompletenessSnapshotAllowsIdlePgReads) {
  Segment seg(0, 4096);
  auto records = MakeChain(3);
  for (const auto& r : records) seg.AddRecord(r);
  Lsn tail = records[2].lsn;
  // A much higher volume VDL, with this PG idle since `tail`.
  seg.SetVdlHint(10000);
  seg.SetCompletenessSnapshot(10000, tail);
  auto page = seg.GetPageAsOf(0, 9000);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  // But if the chain hasn't reached the promised tail, refuse.
  Segment lagging(0, 4096);
  lagging.AddRecord(records[0]);
  lagging.SetCompletenessSnapshot(10000, tail);
  EXPECT_TRUE(lagging.GetPageAsOf(0, 9000).status().IsUnavailable());
}

TEST(SegmentTest, GarbageCollectionDropsAppliedRecordsBelowPgmrpl) {
  Segment seg(0, 4096);
  auto records = MakeChain(9);
  for (const auto& r : records) seg.AddRecord(r);
  seg.SetVdlHint(records[8].lsn);
  seg.SetPgmrpl(records[5].lsn);
  seg.CoalesceStep(100);
  size_t collected = seg.GarbageCollect();
  EXPECT_EQ(collected, 6u);
  EXPECT_EQ(seg.hot_log_size(), 3u);
  // Reads at or above the floor still work.
  EXPECT_TRUE(seg.GetPageAsOf(0, records[6].lsn).ok());
  // Reads below the materialized floor are stale.
  EXPECT_TRUE(seg.GetPageAsOf(0, records[1].lsn).status().IsStale());
}

TEST(SegmentTest, TruncateRemovesSuffixAndHonoursEpochs) {
  Segment seg(0, 4096);
  auto records = MakeChain(10);
  for (const auto& r : records) seg.AddRecord(r);
  Lsn cut = records[6].lsn;
  ASSERT_TRUE(seg.Truncate(cut, 5).ok());
  EXPECT_EQ(seg.epoch(), 5u);
  EXPECT_EQ(seg.max_lsn(), cut);
  EXPECT_EQ(seg.scl(), cut);
  EXPECT_EQ(seg.hot_log_size(), 7u);
  // Older epoch refused; same/newer accepted (idempotent).
  EXPECT_TRUE(seg.Truncate(cut, 4).IsStale());
  EXPECT_TRUE(seg.Truncate(cut, 5).ok());
  EXPECT_TRUE(seg.Truncate(cut, 6).ok());
}

// Truncation forgets annulled records entirely: an LSN it removed may come
// back on another page, and the old page must not replay it.
TEST(SegmentTest, TruncatedLsnReusedOnAnotherPage) {
  Segment seg(0, 4096);
  auto records = MakeChain(6);  // LSN 140 inserts into page 0
  for (const auto& r : records) seg.AddRecord(r);
  ASSERT_TRUE(seg.Truncate(records[3].lsn, 1).ok());
  LogRecord reused = records[4];
  reused.page_id = 2;
  ASSERT_TRUE(seg.AddRecord(reused));
  ASSERT_EQ(seg.scl(), reused.lsn);
  Page page0(4096), page2(4096);
  ASSERT_TRUE(LogApplicator::Apply(records[0], &page0).ok());
  ASSERT_TRUE(LogApplicator::Apply(records[2], &page2).ok());
  ASSERT_TRUE(LogApplicator::Apply(reused, &page2).ok());
  for (Page* p : {&page0, &page2}) p->UpdateCrc();
  Result<Page> got0 = seg.GetPageAsOf(0, reused.lsn);
  Result<Page> got2 = seg.GetPageAsOf(2, reused.lsn);
  ASSERT_TRUE(got0.ok() && got2.ok());
  EXPECT_EQ(got0->raw(), page0.raw());
  EXPECT_EQ(got2->raw(), page2.raw());
}

// A replica cut off during recovery misses the truncate that annulled the
// old epoch's tail, then hears the new epoch. It holds an annulled record
// above a hole, and the new epoch's first record names the recovery point
// as its backlink. The SCL stays at the recovery point: claiming the range
// above it would coalesce and serve the annulled record. Learning the
// truncate heals the replica.
TEST(SegmentTest, AnnulledRecordFromMissedTruncateHoldsTheScl) {
  Segment seg(0, 4096);
  auto records = MakeChain(5);  // LSNs 100..140; 130 never arrives
  for (int i : {0, 1, 2, 4}) seg.AddRecord(records[i]);
  const Lsn recovery_point = records[2].lsn;
  ASSERT_EQ(seg.scl(), recovery_point);
  seg.ObserveEpoch(1);  // recovery truncated above 120; this replica missed it
  LogRecord fresh = records[3];
  fresh.lsn = 200;
  fresh.prev_pg_lsn = recovery_point;
  fresh.prev_vol_lsn = recovery_point;
  EXPECT_TRUE(seg.AddRecord(fresh));
  EXPECT_EQ(seg.scl(), recovery_point);
  EXPECT_FALSE(seg.CanBridgeFrom(recovery_point));
  seg.SetVdlHint(fresh.lsn);
  seg.SetPgmrpl(fresh.lsn);
  seg.CoalesceStep(100);
  EXPECT_EQ(seg.applied_lsn(), recovery_point);  // 140 is never applied
  EXPECT_TRUE(
      seg.GetPageAsOf(records[4].page_id, fresh.lsn).status().IsUnavailable());
  // The truncate removes the annulled record and everything above it; the
  // new epoch's record, sent again, then extends the chain.
  ASSERT_TRUE(seg.Truncate(recovery_point, 1).ok());
  EXPECT_FALSE(seg.HasRecord(records[4].lsn));
  EXPECT_TRUE(seg.AddRecord(fresh));
  EXPECT_EQ(seg.scl(), fresh.lsn);
  EXPECT_TRUE(seg.CanBridgeFrom(recovery_point));
  EXPECT_TRUE(seg.GetPageAsOf(fresh.page_id, fresh.lsn).ok());
}

TEST(SegmentTest, SerializeRoundTripPreservesEverything) {
  Segment seg(3, 4096);
  auto records = MakeChain(8);
  for (const auto& r : records) seg.AddRecord(r);
  seg.SetVdlHint(records[7].lsn);
  seg.SetPgmrpl(records[4].lsn);
  seg.CoalesceStep(100);
  seg.MarkBackedUp(records[3].lsn);

  std::string blob;
  seg.SerializeTo(&blob);
  Segment copy(0, 256);
  ASSERT_TRUE(copy.DeserializeFrom(blob).ok());
  EXPECT_EQ(copy.pg(), 3u);
  EXPECT_EQ(copy.page_size(), 4096u);
  EXPECT_EQ(copy.scl(), seg.scl());
  EXPECT_EQ(copy.applied_lsn(), seg.applied_lsn());
  EXPECT_EQ(copy.hot_log_size(), seg.hot_log_size());
  EXPECT_EQ(copy.num_pages(), seg.num_pages());
  EXPECT_EQ(copy.backup_lsn(), seg.backup_lsn());
  // The copy serves identical pages.
  Lsn rp = seg.applied_lsn();
  auto a = seg.GetPageAsOf(0, rp);
  auto b = copy.GetPageAsOf(0, rp);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->raw(), b->raw());
}

// SerializeTo writes records in strictly increasing LSN order; a blob with
// a record out of order or repeated is corrupt.
TEST(SegmentTest, DeserializeRejectsRecordsOutOfLsnOrder) {
  auto records = MakeChain(2);
  for (int repeat : {0, 1}) {
    std::string blob;
    PutVarint32(&blob, 0);
    PutVarint64(&blob, 4096);
    for (int i = 0; i < 7; ++i) PutVarint64(&blob, kInvalidLsn);  // watermarks
    PutVarint64(&blob, 2);
    records[1].EncodeTo(&blob);
    records[repeat].EncodeTo(&blob);
    PutVarint64(&blob, 0);  // no base pages
    Segment seg(0, 4096);
    EXPECT_TRUE(seg.DeserializeFrom(blob).IsCorruption()) << repeat;
  }
}

TEST(SegmentTest, ScrubFindsCorruptMaterializedPage) {
  Segment seg(0, 4096);
  auto records = MakeChain(6);
  for (const auto& r : records) seg.AddRecord(r);
  seg.SetVdlHint(records[5].lsn);
  seg.SetPgmrpl(records[5].lsn);
  seg.CoalesceStep(100);
  EXPECT_EQ(seg.ScrubPages(), 0u);
  seg.CorruptBasePageForTesting(0);
  EXPECT_EQ(seg.ScrubPages(), 1u);
  EXPECT_EQ(seg.corrupt_pages().count(0), 1u);
  seg.DropPageForRepair(0);
  EXPECT_TRUE(seg.corrupt_pages().empty());
}

TEST(SegmentTest, InventoryListsChainMetadata) {
  Segment seg(0, 4096);
  auto records = MakeChain(4);
  for (const auto& r : records) seg.AddRecord(r);
  auto inv = seg.Inventory();
  ASSERT_EQ(inv.size(), 4u);
  EXPECT_EQ(inv[0].lsn, records[0].lsn);
  EXPECT_EQ(inv[1].prev, records[0].lsn);
  EXPECT_EQ(inv[2].vprev, records[1].lsn);
}

// --- Reference-model property test ----------------------------------------
//
// A segment driven by random operations must agree, after every step, with
// a model built from the plainest structures: the hot log as a std::map
// keyed by LSN, the SCL found by scanning for backlinks, and pages rebuilt
// by applying records one at a time.

constexpr size_t kModelPageSize = 4096;
constexpr int kModelPages = 5;

// A chain over kModelPages pages in random order: each page is formatted by
// its first record, then gets inserts and deletes of its own earlier keys.
std::vector<LogRecord> MakeRandomChain(int n, Random* rng) {
  std::vector<LogRecord> records;
  std::map<PageId, std::vector<std::string>> keys;  // live keys per page
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < n; ++i) {
    LogRecord r;
    r.lsn = 100 + static_cast<Lsn>(i) * 10;
    r.prev_pg_lsn = prev;
    r.prev_vol_lsn = prev;
    r.page_id = rng->Uniform(kModelPages);
    r.txn_id = 1;
    r.flags = rng->Bernoulli(0.3) ? kFlagCpl : 0;
    auto [it, first] = keys.try_emplace(r.page_id);
    std::vector<std::string>& live = it->second;
    if (first) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    } else if (!live.empty() && rng->Bernoulli(0.25)) {
      size_t k = rng->Uniform(live.size());
      r.op = RedoOp::kDelete;
      r.payload = LogRecord::MakeKeyPayload(live[k]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(k));
    } else {
      live.push_back("k" + std::to_string(i));
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(live.back(), "v");
    }
    prev = r.lsn;
    records.push_back(std::move(r));
  }
  return records;
}

struct SegmentModel {
  std::map<Lsn, LogRecord> log;
  std::map<PageId, Page> base;
  Lsn scl = kInvalidLsn, max_lsn = kInvalidLsn, applied = kInvalidLsn;
  Lsn vdl = kInvalidLsn, pgmrpl = kInvalidLsn;
  Epoch epoch = 0;

  // The record naming `prev` as its backlink, if the log holds one.
  const LogRecord* Successor(Lsn prev) const {
    for (const auto& [lsn, r] : log) {
      if (r.prev_pg_lsn == prev) return &r;
    }
    return nullptr;
  }
  void AdvanceScl() {
    while (const LogRecord* r = Successor(scl)) scl = r->lsn;
  }
  bool Add(const LogRecord& r) {
    if (r.lsn <= applied || !log.emplace(r.lsn, r).second) return false;
    max_lsn = std::max(max_lsn, r.lsn);
    AdvanceScl();
    return true;
  }
  size_t Coalesce(size_t max) {
    const Lsn limit = std::min({scl, vdl, pgmrpl});
    size_t n = 0;
    for (auto it = log.upper_bound(applied);
         it != log.end() && it->first <= limit && n < max; ++it, ++n) {
      const LogRecord& r = it->second;
      auto page = base.try_emplace(r.page_id, kModelPageSize).first;
      if (!page->second.IsFormatted() && r.op != RedoOp::kFormatPage) {
        base.erase(page);  // held until a peer copy is restored
        break;
      }
      EXPECT_TRUE(LogApplicator::Apply(r, &page->second).ok());
      page->second.UpdateCrc();
      applied = r.lsn;
    }
    return n;
  }
  size_t Gc() {
    size_t n = 0;
    const Lsn floor = std::min(applied, pgmrpl);
    while (!log.empty() && log.begin()->first <= floor) {
      log.erase(log.begin());
      ++n;
    }
    return n;
  }
  Status Truncate(Lsn above, Epoch e) {
    if (e < epoch) return Status::Stale("old epoch");
    epoch = e;
    log.erase(log.upper_bound(above), log.end());
    scl = std::min(scl, above);
    max_lsn = std::min(max_lsn, above);
    AdvanceScl();
    return Status::OK();
  }
  Result<Page> Get(PageId id, Lsn rp) const {
    if (rp > scl) return Status::Unavailable("incomplete");
    if (rp < applied) return Status::Stale("below floor");
    Page page(kModelPageSize);
    if (auto b = base.find(id); b != base.end()) page = b->second;
    for (const auto& [lsn, r] : log) {
      if (lsn > rp) break;
      if (r.page_id != id) continue;
      Status s = LogApplicator::Apply(r, &page);
      if (!s.ok()) return s;
    }
    if (!page.IsFormatted()) return Status::NotFound("never written");
    page.UpdateCrc();
    return page;
  }
};

std::vector<Lsn> LsnsOf(const std::vector<const LogRecord*>& views) {
  std::vector<Lsn> out;
  for (const LogRecord* r : views) out.push_back(r->lsn);
  return out;
}

void ExpectMatchesModel(const SegmentModel& m, const Segment& seg,
                        const std::vector<LogRecord>& chain, Random* rng) {
  EXPECT_EQ(seg.scl(), m.scl);
  EXPECT_EQ(seg.max_lsn(), m.max_lsn);
  EXPECT_EQ(seg.has_gap(), m.max_lsn > m.scl);
  EXPECT_EQ(seg.applied_lsn(), m.applied);
  ASSERT_EQ(seg.hot_log_size(), m.log.size());
  std::set<Lsn> backlinks;  // every prev_pg_lsn some held record names
  for (const auto& [lsn, r] : m.log) backlinks.insert(r.prev_pg_lsn);
  EXPECT_EQ(seg.CanBridgeFrom(kInvalidLsn), backlinks.count(kInvalidLsn) > 0);
  for (const LogRecord& r : chain) {
    EXPECT_EQ(seg.HasRecord(r.lsn), m.log.count(r.lsn) > 0) << r.lsn;
    EXPECT_EQ(seg.CanBridgeFrom(r.lsn), backlinks.count(r.lsn) > 0) << r.lsn;
  }
  const Lsn probe = chain[rng->Uniform(chain.size())].lsn;
  for (Lsn from : {kInvalidLsn, m.applied, m.scl, probe, probe + 1}) {
    for (size_t max : {size_t{3}, SIZE_MAX}) {
      std::vector<Lsn> want;
      for (auto it = m.log.upper_bound(from);
           it != m.log.end() && want.size() < max; ++it) {
        want.push_back(it->first);
      }
      std::vector<const LogRecord*> got = seg.RecordsAbove(from, max);
      EXPECT_EQ(LsnsOf(got), want) << "from " << from;
      for (const LogRecord* r : got) {
        EXPECT_EQ(r->payload, m.log.at(r->lsn).payload);
      }
    }
  }
  std::vector<InventoryEntry> inv = seg.Inventory();
  ASSERT_EQ(inv.size(), m.log.size());
  size_t i = 0;
  for (const auto& [lsn, r] : m.log) {
    EXPECT_EQ(inv[i].lsn, lsn);
    EXPECT_EQ(inv[i].prev, r.prev_pg_lsn);
    EXPECT_EQ(inv[i].vprev, r.prev_vol_lsn);
    EXPECT_EQ(inv[i].flags, r.flags);
    ++i;
  }
  // Every page at the floor, the SCL and a probe; one page also just past
  // the SCL (Unavailable) and just below the floor (Stale).
  const PageId edge_page = rng->Uniform(kModelPages);
  for (PageId page = 0; page < kModelPages; ++page) {
    std::vector<Lsn> points = {m.applied, m.scl, probe};
    if (page == edge_page) {
      points.push_back(m.scl + 1);
      if (m.applied > kInvalidLsn) points.push_back(m.applied - 1);
    }
    for (Lsn rp : points) {
      Result<Page> want = m.Get(page, rp);
      Result<Page> got = seg.GetPageAsOf(page, rp);
      ASSERT_EQ(got.status().code(), want.status().code())
          << "page " << page << " @" << rp << ": " << got.status().ToString();
      if (want.ok()) {
        EXPECT_EQ(got->raw(), want->raw()) << "page " << page << " @" << rp;
      }
    }
  }
}

TEST(SegmentTest, HotLogMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const std::vector<LogRecord> chain = MakeRandomChain(80, &rng);
    SegmentModel model;
    Segment plain(0, kModelPageSize);
    Segment cached(0, kModelPageSize);
    cached.set_page_cache_budget(3 * kModelPageSize);  // forces evictions
    std::vector<bool> sent(chain.size(), false);
    std::vector<PageId> dropped;  // base pages awaiting a peer copy
    auto deliver = [&](size_t i) {
      const bool added = model.Add(chain[i]);
      EXPECT_EQ(plain.AddRecord(chain[i]), added) << chain[i].lsn;
      LogRecord moved = chain[i];
      EXPECT_EQ(cached.AddRecord(std::move(moved)), added) << chain[i].lsn;
      sent[i] = true;
    };
    auto unsent = [&] {
      std::vector<size_t> out;
      for (size_t i = 0; i < chain.size(); ++i) {
        if (!sent[i]) out.push_back(i);
      }
      return out;
    };
    for (int step = 0; step < 400 && !HasFailure(); ++step) {
      const uint64_t op = rng.Uniform(100);
      std::vector<size_t> todo = unsent();
      if (op < 15 && !todo.empty()) {
        deliver(todo.front());  // next in order
      } else if (op < 30 && !todo.empty()) {
        deliver(todo[rng.Uniform(todo.size())]);  // opens or fills a hole
      } else if (op < 38 && !todo.empty()) {
        // A run delivered newest first.
        size_t first = rng.Uniform(todo.size());
        size_t last = std::min(todo.size(), first + 2 + rng.Uniform(4));
        for (size_t j = last; j-- > first;) deliver(todo[j]);
      } else if (op < 44) {
        deliver(rng.Uniform(chain.size()));  // often a duplicate
      } else if (op < 48 && model.applied > kInvalidLsn) {
        // At or below the applied floor: always refused.
        size_t i = (model.applied - 100) / 10;
        deliver(rng.Uniform(i + 1));
      } else if (op < 58) {
        // Often exactly the SCL, so the whole log can retire and be GC'd.
        auto pick = [&] {
          return rng.Bernoulli(0.5) ? model.scl
                                    : chain[rng.Uniform(chain.size())].lsn;
        };
        Lsn vdl = pick();
        Lsn pgmrpl = pick();
        model.vdl = std::max(model.vdl, vdl);
        model.pgmrpl = std::max(model.pgmrpl, pgmrpl);
        for (Segment* s : {&plain, &cached}) {
          s->SetVdlHint(vdl);
          s->SetPgmrpl(pgmrpl);
        }
      } else if (op < 72) {
        size_t max = 1 + rng.Uniform(rng.Bernoulli(0.5) ? 10 : 100);
        size_t n = model.Coalesce(max);
        EXPECT_EQ(plain.CoalesceStep(max), n);
        EXPECT_EQ(cached.CoalesceStep(max), n);
      } else if (op < 80) {
        size_t n = model.Gc();
        EXPECT_EQ(plain.GarbageCollect(), n);
        EXPECT_EQ(cached.GarbageCollect(), n);
      } else if (op < 84 && model.max_lsn > model.applied) {
        // Recovery truncates at a VDL: a record LSN at or above the floor.
        Lsn above = model.applied;
        for (const LogRecord& r : chain) {
          if (r.lsn > model.applied && r.lsn <= model.max_lsn &&
              rng.Bernoulli(0.2)) {
            above = r.lsn;
            break;
          }
        }
        Epoch e = model.epoch + rng.Uniform(2);
        if (model.epoch > 0 && rng.Bernoulli(0.2)) e = model.epoch - 1;
        bool ok = model.Truncate(above, e).ok();
        EXPECT_EQ(plain.Truncate(above, e).ok(), ok);
        EXPECT_EQ(cached.Truncate(above, e).ok(), ok);
        for (size_t i = 0; i < chain.size(); ++i) {
          if (chain[i].lsn > above) sent[i] = false;  // may be re-sent
        }
      } else if (op < 87) {
        PageId page = rng.Uniform(kModelPages);
        model.base.erase(page);
        plain.DropPageForRepair(page);
        cached.DropPageForRepair(page);
        dropped.push_back(page);
      } else if (op < 94 && !dropped.empty()) {
        // A peer's healthy copy: the page's chain replayed to the floor.
        PageId page = dropped[rng.Uniform(dropped.size())];
        Page healthy(kModelPageSize);
        for (const LogRecord& r : chain) {
          if (r.lsn > model.applied) break;
          if (r.page_id == page) {
            ASSERT_TRUE(LogApplicator::Apply(r, &healthy).ok());
          }
        }
        if (!healthy.IsFormatted()) continue;
        healthy.UpdateCrc();
        std::erase(dropped, page);
        model.base.insert_or_assign(page, healthy);
        plain.RestoreBasePage(page, healthy);
        cached.RestoreBasePage(page, healthy);
      } else if (op < 97) {
        for (Segment* s : {&plain, &cached}) {
          std::string blob;
          s->SerializeTo(&blob);
          ASSERT_TRUE(s->DeserializeFrom(blob).ok());
        }
      }
      ExpectMatchesModel(model, plain, chain, &rng);
      ExpectMatchesModel(model, cached, chain, &rng);
    }
  }
}

TEST(WireTest, AllMessageTypesRoundTrip) {
  {
    WriteBatchMsg m;
    m.pg = 3;
    m.replica = 5;
    m.epoch = 7;
    m.batch_seq = 42;
    m.vdl_hint = 1000;
    m.pgmrpl_hint = 900;
    m.records = MakeChain(3);
    std::string buf;
    m.EncodeTo(&buf);
    WriteBatchMsg out;
    ASSERT_TRUE(WriteBatchMsg::DecodeFrom(buf, &out).ok());
    EXPECT_EQ(out.pg, m.pg);
    EXPECT_EQ(out.replica, m.replica);
    EXPECT_EQ(out.batch_seq, m.batch_seq);
    EXPECT_EQ(out.records.size(), 3u);
    EXPECT_EQ(out.records[2].lsn, m.records[2].lsn);
  }
  {
    InventoryRespMsg m;
    m.req_id = 9;
    m.pg = 2;
    m.replica = 1;
    m.epoch = 3;
    m.scl = 500;
    m.vdl_hint = 450;
    m.entries = {{100, 90, 95, kFlagCpl}, {110, 100, 100, 0}};
    std::string buf;
    m.EncodeTo(&buf);
    InventoryRespMsg out;
    ASSERT_TRUE(InventoryRespMsg::DecodeFrom(buf, &out).ok());
    EXPECT_EQ(out.vdl_hint, 450u);
    ASSERT_EQ(out.entries.size(), 2u);
    EXPECT_EQ(out.entries[0].vprev, 95u);
    EXPECT_EQ(out.entries[0].flags, kFlagCpl);
  }
  {
    PgmrplMsg m;
    m.pg = 1;
    m.pgmrpl = 777;
    m.has_snapshot = true;
    m.vdl_snapshot = 800;
    m.pg_tail = 600;
    std::string buf;
    m.EncodeTo(&buf);
    PgmrplMsg out;
    ASSERT_TRUE(PgmrplMsg::DecodeFrom(buf, &out).ok());
    EXPECT_TRUE(out.has_snapshot);
    EXPECT_EQ(out.vdl_snapshot, 800u);
    EXPECT_EQ(out.pg_tail, 600u);
  }
  {
    ReplicaStreamMsg m;
    m.vdl = 123;
    m.records = MakeChain(2);
    m.commits = {{50, 1111}, {60, 2222}};
    std::string buf;
    m.EncodeTo(&buf);
    ReplicaStreamMsg out;
    ASSERT_TRUE(ReplicaStreamMsg::DecodeFrom(buf, &out).ok());
    EXPECT_EQ(out.vdl, 123u);
    EXPECT_EQ(out.commits.size(), 2u);
    EXPECT_EQ(out.commits[1].second, 2222u);
  }
  {
    TruncateReqMsg m;
    m.req_id = 5;
    m.pg = 4;
    m.epoch = 9;
    m.truncate_above = 1234;
    std::string buf;
    m.EncodeTo(&buf);
    TruncateReqMsg out;
    ASSERT_TRUE(TruncateReqMsg::DecodeFrom(buf, &out).ok());
    EXPECT_EQ(out.truncate_above, 1234u);
    EXPECT_EQ(out.epoch, 9u);
  }
}

TEST(WireTest, WriteBatchHeaderPlusBodyMatchesEncodeTo) {
  // The single-encode fan-out path splits the message at the per-replica
  // boundary; concatenating the two halves must reproduce EncodeTo exactly
  // so receivers decode with the unchanged DecodeFrom.
  WriteBatchMsg m;
  m.pg = 3;
  m.replica = 5;
  m.epoch = 7;
  m.cfg_epoch = 2;
  m.batch_seq = 42;
  m.vdl_hint = 1000;
  m.pgmrpl_hint = 900;
  m.records = MakeChain(3);
  std::string whole;
  m.EncodeTo(&whole);
  std::string split;
  m.EncodeHeaderTo(&split);
  WriteBatchMsg::EncodeBody(m.epoch, m.cfg_epoch, m.batch_seq, m.vdl_hint,
                            m.pgmrpl_hint, m.records, &split);
  EXPECT_EQ(split, whole);
  WriteBatchMsg out;
  ASSERT_TRUE(WriteBatchMsg::DecodeFrom(split, &out).ok());
  EXPECT_EQ(out.pg, m.pg);
  EXPECT_EQ(out.replica, m.replica);
  EXPECT_EQ(out.epoch, m.epoch);
  EXPECT_EQ(out.cfg_epoch, m.cfg_epoch);
  EXPECT_EQ(out.batch_seq, m.batch_seq);
  EXPECT_EQ(out.vdl_hint, m.vdl_hint);
  EXPECT_EQ(out.pgmrpl_hint, m.pgmrpl_hint);
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[2].lsn, m.records[2].lsn);
}

TEST(WireTest, TruncatedMessagesRejected) {
  WriteBatchMsg m;
  m.pg = 1;
  m.records = MakeChain(2);
  std::string buf;
  m.EncodeTo(&buf);
  for (size_t cut : {size_t{0}, size_t{1}, buf.size() / 2, buf.size() - 1}) {
    WriteBatchMsg out;
    EXPECT_FALSE(
        WriteBatchMsg::DecodeFrom(Slice(buf.data(), cut), &out).ok());
  }
}

}  // namespace
}  // namespace aurora
