#include "harness/synthetic_table.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/row_codec.h"

namespace aurora {

namespace {
constexpr double kLeafFill = 0.7;      // headroom for in-place growth
constexpr double kInternalFill = 0.9;
constexpr size_t kKeyBytes = 19;       // "key%016llu"
}  // namespace

SyntheticTableLayout::SyntheticTableLayout(PageId first_page, uint64_t rows,
                                           size_t page_size,
                                           size_t value_size)
    : first_page_(first_page),
      rows_(rows),
      page_size_(page_size),
      value_size_(value_size) {
  const size_t usable = page_size - Page::kHeaderSize;
  // Leaf entry: varint(keylen)+key + varint(vallen) + stamp + value + slot.
  const size_t leaf_entry = 1 + kKeyBytes + 2 + 1 + value_size + 2;
  rows_per_leaf_ = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(usable) * kLeafFill /
                             static_cast<double>(leaf_entry)));
  // Internal entry: key + 8-byte child + slot.
  const size_t internal_entry = 1 + kKeyBytes + 1 + 8 + 2;
  uint64_t fanout = std::max<uint64_t>(
      2, static_cast<uint64_t>(static_cast<double>(usable) * kInternalFill /
                               static_cast<double>(internal_entry)));

  uint64_t n = (rows_ + rows_per_leaf_ - 1) / rows_per_leaf_;
  if (n == 0) n = 1;
  PageId next = first_page_ + 1;  // first_page_ itself is the anchor
  levels_.push_back({next, n, 1});
  next += n;
  while (n > 1) {
    uint64_t parents = (n + fanout - 1) / fanout;
    levels_.push_back({next, parents, fanout});
    next += parents;
    n = parents;
  }
  total_pages_ = next - first_page_;
}

size_t SyntheticTableLayout::FormatKey(uint64_t row, char* out) {
  // "key%016llu" by hand: at least 16 digits, zero-padded, more if needed.
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + row % 10);
    row /= 10;
  } while (row != 0);
  while (n < 16) digits[n++] = '0';
  memcpy(out, "key", 3);
  for (size_t i = 0; i < n; ++i) out[3 + i] = digits[n - 1 - i];
  return 3 + n;
}

std::string SyntheticTableLayout::KeyOf(uint64_t row) {
  char buf[kMaxKeyBytes];
  return std::string(buf, FormatKey(row, buf));
}

std::string SyntheticTableLayout::UserValueOf(uint64_t row) const {
  return std::string(value_size_, static_cast<char>('a' + row % 23));
}

std::string SyntheticTableLayout::StoredValueOf(uint64_t row) const {
  return EncodeRow(0, UserValueOf(row));
}

PageId SyntheticTableLayout::LeafOf(uint64_t row) const {
  return levels_[0].first + row / rows_per_leaf_;
}

uint64_t SyntheticTableLayout::FirstRowOf(size_t level_idx,
                                          uint64_t node_idx) const {
  uint64_t leaf = node_idx;
  for (size_t l = level_idx; l > 0; --l) {
    leaf *= levels_[l].fanout;
  }
  return leaf * rows_per_leaf_;
}

PageId SyntheticTableLayout::PageOf(size_t level_idx,
                                    uint64_t node_idx) const {
  return levels_[level_idx].first + node_idx;
}

bool SyntheticTableLayout::BuildPage(PageId page, Page* out) const {
  if (!Contains(page)) return false;
  if (page == first_page_) {
    BuildAnchor(out);
    return true;
  }
  for (size_t l = 0; l < levels_.size(); ++l) {
    const Level& level = levels_[l];
    if (page >= level.first && page < level.first + level.count) {
      if (l == 0) {
        BuildLeaf(page - level.first, out);
      } else {
        BuildInternal(l, page - level.first, out);
      }
      return true;
    }
  }
  return false;
}

void SyntheticTableLayout::BuildAnchor(Page* out) const {
  out->Format(first_page_, PageType::kMeta, 0);
  std::string root;
  PutFixed64(&root, PageOf(levels_.size() - 1, 0));
  Status s = out->InsertRecord("root", root);
  AURORA_CHECK(s.ok(), "synthetic anchor build failed");
  out->UpdateCrc();
}

void SyntheticTableLayout::BuildLeaf(uint64_t leaf_idx, Page* out) const {
  out->Format(PageOf(0, leaf_idx), PageType::kBTreeLeaf, 0);
  const uint64_t lo = leaf_idx * rows_per_leaf_;
  const uint64_t hi = std::min<uint64_t>(rows_, lo + rows_per_leaf_);
  // One key buffer and one value buffer, refilled per row: the stored value
  // is the row-codec stamp (varint 0) then value_size_ copies of one byte.
  char key[kMaxKeyBytes];
  std::string value(1 + value_size_, '\0');
  for (uint64_t row = lo; row < hi; ++row) {
    const size_t key_len = FormatKey(row, key);
    memset(value.data() + 1, 'a' + static_cast<int>(row % 23), value_size_);
    Status s = out->AppendRecord(Slice(key, key_len), value);
    AURORA_CHECK(s.ok(), "synthetic leaf build overflow");
  }
  if (leaf_idx > 0) out->set_prev_page(PageOf(0, leaf_idx - 1));
  if (leaf_idx + 1 < levels_[0].count) {
    out->set_next_page(PageOf(0, leaf_idx + 1));
  }
  out->UpdateCrc();
}

void SyntheticTableLayout::BuildInternal(size_t level_idx, uint64_t node_idx,
                                         Page* out) const {
  const Level& level = levels_[level_idx];
  out->Format(PageOf(level_idx, node_idx), PageType::kBTreeInternal,
              static_cast<uint8_t>(level_idx));
  uint64_t child_lo = node_idx * level.fanout;
  uint64_t child_hi =
      std::min<uint64_t>(levels_[level_idx - 1].count,
                         child_lo + level.fanout);
  bool is_root = level_idx + 1 == levels_.size();
  char key[kMaxKeyBytes];
  char child[8];
  for (uint64_t c = child_lo; c < child_hi; ++c) {
    // The root's leftmost entry has the empty key: it covers every smaller
    // key.
    const size_t key_len = is_root && c == child_lo
                               ? 0
                               : FormatKey(FirstRowOf(level_idx - 1, c), key);
    EncodeFixed64(child, PageOf(level_idx - 1, c));
    Status s = out->AppendRecord(Slice(key, key_len), Slice(child, 8));
    AURORA_CHECK(s.ok(), "synthetic internal build overflow");
  }
  out->UpdateCrc();
}

}  // namespace aurora
