#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "page/page.h"

namespace aurora {
namespace {

class PageTest : public ::testing::TestWithParam<size_t> {
 protected:
  PageTest() : page_(GetParam()) {
    page_.Format(42, PageType::kBTreeLeaf, 0);
  }
  Page page_;
};

INSTANTIATE_TEST_SUITE_P(PageSizes, PageTest,
                         ::testing::Values(512, 4096, 16384, 32768));

TEST_P(PageTest, FormatSetsHeader) {
  EXPECT_TRUE(page_.IsFormatted());
  EXPECT_EQ(page_.page_id(), 42u);
  EXPECT_EQ(page_.page_type(), PageType::kBTreeLeaf);
  EXPECT_EQ(page_.level(), 0);
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.page_lsn(), kInvalidLsn);
  EXPECT_EQ(page_.next_page(), kInvalidPage);
  EXPECT_EQ(page_.prev_page(), kInvalidPage);
}

TEST_P(PageTest, UnformattedPageDetected) {
  Page p(GetParam());
  EXPECT_FALSE(p.IsFormatted());
}

TEST_P(PageTest, InsertAndGet) {
  ASSERT_TRUE(page_.InsertRecord("bob", "builder").ok());
  ASSERT_TRUE(page_.InsertRecord("alice", "wonder").ok());
  Slice v;
  ASSERT_TRUE(page_.GetRecord("alice", &v));
  EXPECT_EQ(v.ToString(), "wonder");
  ASSERT_TRUE(page_.GetRecord("bob", &v));
  EXPECT_EQ(v.ToString(), "builder");
  EXPECT_FALSE(page_.GetRecord("carol", &v));
}

TEST_P(PageTest, KeysKeptSorted) {
  const char* keys[] = {"delta", "alpha", "echo", "bravo", "charlie"};
  for (const char* k : keys) ASSERT_TRUE(page_.InsertRecord(k, "v").ok());
  ASSERT_EQ(page_.slot_count(), 5);
  for (int i = 1; i < 5; ++i) {
    EXPECT_TRUE(page_.KeyAt(i - 1) < page_.KeyAt(i));
  }
}

TEST_P(PageTest, DuplicateInsertRejected) {
  ASSERT_TRUE(page_.InsertRecord("k", "v1").ok());
  EXPECT_TRUE(page_.InsertRecord("k", "v2").IsInvalidArgument());
  Slice v;
  ASSERT_TRUE(page_.GetRecord("k", &v));
  EXPECT_EQ(v.ToString(), "v1");
}

TEST_P(PageTest, DeleteRemovesRecord) {
  ASSERT_TRUE(page_.InsertRecord("a", "1").ok());
  ASSERT_TRUE(page_.InsertRecord("b", "2").ok());
  ASSERT_TRUE(page_.DeleteRecord("a").ok());
  Slice v;
  EXPECT_FALSE(page_.GetRecord("a", &v));
  EXPECT_TRUE(page_.GetRecord("b", &v));
  EXPECT_EQ(page_.slot_count(), 1);
  EXPECT_TRUE(page_.DeleteRecord("a").IsNotFound());
}

TEST_P(PageTest, UpdateChangesValue) {
  ASSERT_TRUE(page_.InsertRecord("k", "old").ok());
  ASSERT_TRUE(page_.UpdateRecord("k", "new-and-longer").ok());
  Slice v;
  ASSERT_TRUE(page_.GetRecord("k", &v));
  EXPECT_EQ(v.ToString(), "new-and-longer");
  EXPECT_TRUE(page_.UpdateRecord("missing", "x").IsNotFound());
}

TEST_P(PageTest, FillsUntilOutOfRangeThenStillConsistent) {
  int inserted = 0;
  while (true) {
    std::string k = "key" + std::to_string(10000 + inserted);
    Status s = page_.InsertRecord(k, std::string(20, 'v'));
    if (s.IsOutOfRange()) break;
    ASSERT_TRUE(s.ok());
    ++inserted;
  }
  EXPECT_GT(inserted, 5);
  EXPECT_EQ(page_.slot_count(), inserted);
  // Every inserted record still readable.
  for (int i = 0; i < inserted; ++i) {
    Slice v;
    EXPECT_TRUE(page_.GetRecord("key" + std::to_string(10000 + i), &v));
  }
}

TEST_P(PageTest, DeadSpaceReclaimedByCompaction) {
  // Fill the page, delete everything, then fill again: compaction must make
  // the space reusable.
  for (int round = 0; round < 3; ++round) {
    int inserted = 0;
    while (true) {
      std::string k = "k" + std::to_string(100000 + inserted);
      if (!page_.InsertRecord(k, std::string(30, 'x')).ok()) break;
      ++inserted;
    }
    EXPECT_GT(inserted, 3);
    for (int i = 0; i < inserted; ++i) {
      ASSERT_TRUE(page_.DeleteRecord("k" + std::to_string(100000 + i)).ok());
    }
    EXPECT_EQ(page_.slot_count(), 0);
  }
}

TEST_P(PageTest, UpdateGrowthUsesCompaction) {
  // Insert small values then grow them, forcing dead-space reuse.
  int n = 0;
  while (page_.HasRoomFor(8, 8) && n < 50) {
    ASSERT_TRUE(
        page_.InsertRecord("k" + std::to_string(1000 + n), "tiny").ok());
    ++n;
  }
  // Grow the first few values; some will require compaction.
  int grown = 0;
  for (int i = 0; i < n; ++i) {
    Status s = page_.UpdateRecord("k" + std::to_string(1000 + i),
                                  std::string(16, 'G'));
    if (s.ok()) {
      ++grown;
    } else {
      EXPECT_TRUE(s.IsOutOfRange());
      break;
    }
  }
  EXPECT_GT(grown, 0);
  for (int i = 0; i < grown; ++i) {
    Slice v;
    ASSERT_TRUE(page_.GetRecord("k" + std::to_string(1000 + i), &v));
    EXPECT_EQ(v.ToString(), std::string(16, 'G'));
  }
}

TEST_P(PageTest, AppendRecordMatchesInsertRecordBytes) {
  Page inserted(GetParam());
  inserted.Format(42, PageType::kBTreeLeaf, 0);
  for (int i = 0;; ++i) {
    std::string k = "key" + std::to_string(10000 + i);
    std::string v(i % 150, static_cast<char>('a' + i % 26));
    Status a = page_.AppendRecord(k, v);
    Status b = inserted.InsertRecord(k, v);
    ASSERT_EQ(a.code(), b.code()) << i;
    if (!a.ok()) {
      EXPECT_TRUE(a.IsOutOfRange());
      break;
    }
  }
  EXPECT_EQ(page_.raw(), inserted.raw());
  // Keys must sort strictly last: an equal or smaller key is refused.
  ASSERT_GT(page_.slot_count(), 1);
  EXPECT_TRUE(page_.AppendRecord(page_.KeyAt(page_.slot_count() - 1), "")
                  .IsInvalidArgument());
  EXPECT_TRUE(page_.AppendRecord("a", "").IsInvalidArgument());
  EXPECT_EQ(page_.raw(), inserted.raw());
}

TEST_P(PageTest, LowerBoundSemantics) {
  for (const char* k : {"b", "d", "f"}) {
    ASSERT_TRUE(page_.InsertRecord(k, "v").ok());
  }
  EXPECT_EQ(page_.LowerBound("a"), 0);
  EXPECT_EQ(page_.LowerBound("b"), 0);
  EXPECT_EQ(page_.LowerBound("c"), 1);
  EXPECT_EQ(page_.LowerBound("f"), 2);
  EXPECT_EQ(page_.LowerBound("g"), 3);
  EXPECT_EQ(page_.UpperBoundChild("a"), -1);
  EXPECT_EQ(page_.UpperBoundChild("b"), 0);
  EXPECT_EQ(page_.UpperBoundChild("e"), 1);
  EXPECT_EQ(page_.UpperBoundChild("z"), 2);
}

TEST_P(PageTest, HeaderFieldsRoundTrip) {
  page_.set_page_lsn(123456789);
  page_.set_next_page(77);
  page_.set_prev_page(66);
  page_.set_schema_version(5);
  EXPECT_EQ(page_.page_lsn(), 123456789u);
  EXPECT_EQ(page_.next_page(), 77u);
  EXPECT_EQ(page_.prev_page(), 66u);
  EXPECT_EQ(page_.schema_version(), 5u);
}

TEST_P(PageTest, CrcDetectsCorruption) {
  ASSERT_TRUE(page_.InsertRecord("k", "v").ok());
  page_.UpdateCrc();
  EXPECT_TRUE(page_.VerifyCrc());
  Page copy = page_;
  copy.CorruptForTesting(GetParam() / 2);
  EXPECT_FALSE(copy.VerifyCrc());
  EXPECT_TRUE(page_.VerifyCrc());
}

TEST_P(PageTest, LoadRawRoundTrip) {
  ASSERT_TRUE(page_.InsertRecord("k", "v").ok());
  page_.UpdateCrc();
  Page other(GetParam());
  ASSERT_TRUE(other.LoadRaw(page_.raw()).ok());
  EXPECT_TRUE(other.VerifyCrc());
  Slice v;
  ASSERT_TRUE(other.GetRecord("k", &v));
  EXPECT_EQ(v.ToString(), "v");
  Page wrong_size(GetParam() == 512 ? 1024 : 512);
  EXPECT_TRUE(wrong_size.LoadRaw(page_.raw()).IsInvalidArgument());
}

// Seeded insert/update/delete churn that keeps the page full, so inserts
// and growing updates repeatedly compact the heap. The page must match a
// std::map model after every step, and each final image (heap layout and
// the stale bytes compaction leaves past heap_end included) must match the
// CRC pinned from the row-copying Compact/AppendToHeap it replaced.
TEST_P(PageTest, HeapChurnMatchesPinnedImages) {
  const size_t size = GetParam();
  const std::map<size_t, uint32_t> kPinnedCrc = {
      {512, 374682548u},
      {4096, 3771746378u},
      {16384, 3568691125u},
      {32768, 3011536326u}};
  const uint64_t universe = size / 32;
  const uint64_t max_value = std::min<size_t>(size / 16, 150);
  auto record_bytes = [](const std::string& k, const std::string& v) {
    return VarintLength(k.size()) + k.size() + VarintLength(v.size()) +
           v.size() + 2;
  };
  std::map<std::string, std::string> model;
  Random rng(1000 + size);
  int compactions = 0;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t id = rng.Uniform(universe);
    std::string key = "k" + std::to_string(100000 + id);
    // Every 7th key is long enough for a two-byte length varint.
    if (id % 7 == 3 && size >= 4096) key.resize(140, 'K');
    std::string val(rng.Uniform(max_value) + 1,
                    static_cast<char>('a' + step % 26));
    const uint64_t op = rng.Uniform(10);
    const size_t free_before = page_.FreeSpace();
    if (op < 4) {
      Status s = page_.InsertRecord(key, val);
      if (model.count(key)) {
        ASSERT_TRUE(s.IsInvalidArgument()) << "step " << step;
      } else if (s.ok()) {
        if (free_before < record_bytes(key, val)) ++compactions;
        model[key] = val;
      } else {
        ASSERT_TRUE(s.IsOutOfRange()) << "step " << step;
      }
    } else if (op < 7) {
      Status s = page_.UpdateRecord(key, val);
      if (!model.count(key)) {
        ASSERT_TRUE(s.IsNotFound()) << "step " << step;
      } else if (s.ok()) {
        if (free_before < record_bytes(key, val)) ++compactions;
        model[key] = val;
      } else {
        ASSERT_TRUE(s.IsOutOfRange()) << "step " << step;
      }
    } else if (op < 9) {
      Status s = page_.DeleteRecord(key);
      ASSERT_EQ(s.ok(), model.erase(key) > 0) << "step " << step;
    } else {
      Slice v;
      ASSERT_EQ(page_.GetRecord(key, &v), model.count(key) > 0);
    }
    ASSERT_EQ(page_.slot_count(), static_cast<int>(model.size()));
    int slot = 0;
    for (const auto& [k, v] : model) {
      ASSERT_EQ(page_.KeyAt(slot).ToString(), k) << "step " << step;
      ASSERT_EQ(page_.ValueAt(slot).ToString(), v) << "step " << step;
      ++slot;
    }
  }
  EXPECT_GT(compactions, 10);
  page_.UpdateCrc();
  EXPECT_EQ(crc32c::Value(page_.raw().data(), size), kPinnedCrc.at(size))
      << "page size " << size;
}

// Property test: a long random op sequence against a std::map reference
// model must agree exactly.
TEST(PagePropertyTest, RandomOpsMatchReferenceModel) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf, 0);
  std::map<std::string, std::string> model;
  Random rng(2024);
  for (int step = 0; step < 20000; ++step) {
    std::string key = "k" + std::to_string(rng.Uniform(200));
    int op = static_cast<int>(rng.Uniform(4));
    if (op == 0) {
      std::string val(rng.Uniform(40) + 1, 'a' + step % 26);
      Status s = page.InsertRecord(key, val);
      if (model.count(key)) {
        EXPECT_TRUE(s.IsInvalidArgument());
      } else if (s.ok()) {
        model[key] = val;
      } else {
        EXPECT_TRUE(s.IsOutOfRange());
      }
    } else if (op == 1) {
      Status s = page.DeleteRecord(key);
      EXPECT_EQ(s.ok(), model.erase(key) > 0);
    } else if (op == 2) {
      std::string val(rng.Uniform(40) + 1, 'A' + step % 26);
      Status s = page.UpdateRecord(key, val);
      if (!model.count(key)) {
        EXPECT_TRUE(s.IsNotFound());
      } else if (s.ok()) {
        model[key] = val;
      } else {
        EXPECT_TRUE(s.IsOutOfRange());
      }
    } else {
      Slice v;
      bool found = page.GetRecord(key, &v);
      auto it = model.find(key);
      ASSERT_EQ(found, it != model.end()) << "step " << step;
      if (found) {
        EXPECT_EQ(v.ToString(), it->second);
      }
    }
    ASSERT_EQ(page.slot_count(), static_cast<int>(model.size()));
  }
  // Final full comparison in slot order.
  int i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(page.KeyAt(i).ToString(), k);
    EXPECT_EQ(page.ValueAt(i).ToString(), v);
    ++i;
  }
}

}  // namespace
}  // namespace aurora
