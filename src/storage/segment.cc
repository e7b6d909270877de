#include "storage/segment.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "log/applicator.h"

namespace aurora {

bool Segment::AddRecord(LogRecord record) {
  const Lsn lsn = record.lsn;
  const PageId page = record.page_id;
  // Records at or below the applied floor (kInvalidLsn included) are already
  // reflected in base pages (and possibly garbage collected); re-adding them
  // (late gossip) would leave unreclaimable junk.
  if (lsn <= applied_lsn_) return false;
  // In-order arrivals append; gossip filling a hole lands mid-log.
  auto pos = After(lsn);
  if (pos != hot_log_.begin() && std::prev(pos)->lsn == lsn) return false;
  hot_log_.insert(pos, std::move(record));
  std::vector<Lsn>& lsns = page_lsns_[page];
  lsns.insert(std::ranges::upper_bound(lsns, lsn), lsn);
  if (lsn > max_lsn_) max_lsn_ = lsn;
  // A record above the cached entry's build point is picked up by partial
  // replay; one at or below it (late gossip filling a gap) means the cached
  // image was built without it — drop the entry.
  if (!page_cache_.empty()) {
    auto cit = page_cache_.find(page);
    if (cit != page_cache_.end() && lsn <= cit->second.built_lsn) {
      CacheErase(page);
    }
  }
  AdvanceScl();
  return true;
}

std::deque<LogRecord>::const_iterator Segment::After(Lsn lsn) const {
  // Most lookups (an arriving record, the SCL) land among the newest
  // records: step back from the tail in doubling strides, then bisect the
  // last stride. Every record in [hi, end) is above `lsn`.
  auto hi = hot_log_.cend();
  for (ptrdiff_t stride = 1; hi != hot_log_.cbegin(); stride *= 2) {
    auto lo = hi - std::min(stride, hi - hot_log_.cbegin());
    if (lo->lsn <= lsn) {
      return std::ranges::upper_bound(lo, hi, lsn, {}, &LogRecord::lsn);
    }
    hi = lo;
  }
  return hi;
}

const LogRecord* Segment::RecordAt(Lsn lsn) const {
  auto it = After(lsn);
  return it != hot_log_.begin() && (--it)->lsn == lsn ? &*it : nullptr;
}

std::vector<const LogRecord*> Segment::Views(Lsn after, Lsn through,
                                             size_t max) const {
  std::vector<const LogRecord*> out;
  for (auto it = After(after);
       it != hot_log_.end() && it->lsn <= through && out.size() < max; ++it) {
    out.push_back(&*it);
  }
  return out;
}

std::span<const Lsn> Segment::PageLsns(PageId page, Lsn from, Lsn to) const {
  auto it = page_lsns_.find(page);
  if (it == page_lsns_.end()) return {};
  return {std::ranges::upper_bound(it->second, from),
          std::ranges::upper_bound(it->second, to)};
}

void Segment::Unindex(PageId page, Lsn from, Lsn to) {
  auto it = page_lsns_.find(page);
  if (it == page_lsns_.end()) return;
  std::vector<Lsn>& lsns = it->second;
  lsns.erase(std::ranges::upper_bound(lsns, from),
             std::ranges::upper_bound(lsns, to));
  if (lsns.empty()) page_lsns_.erase(it);
}

Status Segment::Replay(std::span<const Lsn> lsns, Page* image) const {
  for (Lsn lsn : lsns) {
    const LogRecord* rec = RecordAt(lsn);
    AURORA_CHECK(rec != nullptr, "page index names a record not in the log");
    Status s = LogApplicator::Apply(*rec, image);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::vector<InventoryEntry> Segment::Inventory() const {
  std::vector<InventoryEntry> out;
  out.reserve(hot_log_.size());
  for (const LogRecord& rec : hot_log_) {
    out.push_back({rec.lsn, rec.prev_pg_lsn, rec.prev_vol_lsn, rec.flags});
  }
  return out;
}

Lsn Segment::MaterializationLimit() const {
  // Never materialize beyond what is (a) locally complete, (b) known
  // durable volume-wide (so post-crash truncation cannot undo a base page),
  // and (c) below every possible outstanding read point.
  return std::min(scl_, std::min(vdl_hint_, pgmrpl_));
}

Page* Segment::BasePage(PageId page) {
  auto it = base_pages_.find(page);
  if (it == base_pages_.end()) {
    it = base_pages_.emplace(page, Page(page_size_)).first;
    if (synthesizer_) synthesizer_(page, &it->second);
  }
  return &it->second;
}

size_t Segment::CoalesceStep(size_t max_records) {
  const Lsn limit = MaterializationLimit();
  std::set<PageId> touched;
  size_t applied = 0;
  for (auto it = After(applied_lsn_);
       it != hot_log_.end() && it->lsn <= limit && applied < max_records;
       ++it, ++applied) {
    const LogRecord& rec = *it;
    Page* page = BasePage(rec.page_id);
    if (!page->IsFormatted() && rec.op != RedoOp::kFormatPage) {
      // The page's base image was dropped for repair after its format
      // record retired into it: this record cannot apply locally. Hold the
      // materialization frontier here until a peer copy is restored (and
      // drop the unformatted placeholder BasePage just created — an empty
      // entry is indistinguishable from a missing one, and reads must keep
      // treating the page as lost).
      base_pages_.erase(rec.page_id);
      break;
    }
    Status s = LogApplicator::Apply(rec, page);
    AURORA_CHECK(s.ok(), "coalesce apply failed (non-deterministic redo?)");
    touched.insert(rec.page_id);
    applied_lsn_ = rec.lsn;
  }
  // Checksum each touched page once, after its last apply of the step (also
  // when the loop stopped early at a page awaiting repair).
  for (PageId id : touched) base_pages_.at(id).UpdateCrc();
  return applied;
}

Result<Page> Segment::GetPageAsOf(PageId page, Lsn read_point) const {
  // Complete at the read point if the chain covers it directly, or if a
  // consistent snapshot proves this PG has no records in (scl, read_point].
  bool complete = read_point <= scl_ ||
                  (read_point <= snapshot_vdl_ && scl_ >= snapshot_tail_);
  if (!complete) {
    return Status::Unavailable("segment incomplete at read point");
  }
  if (read_point < applied_lsn_) {
    return Status::Stale("read point below materialized floor");
  }

  const bool cache_on = CacheEnabled();
  bool historical = false;  // read point below the cached version: bypass
  if (cache_on) {
    auto cit = page_cache_.find(page);
    if (cit != page_cache_.end()) {
      CacheEntry& entry = cit->second;
      if (read_point >= entry.built_lsn) {
        auto newer = PageLsns(page, entry.built_lsn, read_point);
        if (newer.empty()) {
          ++cache_stats_.hits;
          CacheTouch(&entry);
          return entry.image;
        }
        // Partial hit: replay only the suffix on top of the cached image.
        // Redo application is deterministic, so this yields byte-identical
        // results to a full rebuild (the cached image already reflects
        // everything <= built_lsn).
        Page result = entry.image;
        Status s = Replay(newer, &result);
        if (!s.ok()) return s;
        result.UpdateCrc();
        ++cache_stats_.partial_hits;
        CacheInsert(page, result, read_point);
        return result;
      }
      historical = true;
    }
  }

  auto base_it = base_pages_.find(page);
  const bool has_base = base_it != base_pages_.end();
  // Verify the stored image before serving it: a latent sector fault
  // planted between scrub rounds must surface as Corruption (triggering
  // read-repair from a peer), never as a silently wrong page.
  if (has_base && base_it->second.IsFormatted() &&
      !base_it->second.VerifyCrc()) {
    corrupt_pages_.insert(page);
    return Status::Corruption("base page CRC mismatch");
  }
  Page result = has_base ? base_it->second : Page(page_size_);
  if (!has_base && synthesizer_) synthesizer_(page, &result);
  const auto lsns = PageLsns(page, kInvalidLsn, read_point);
  Status s = Replay(lsns, &result);
  if (!s.ok()) return s;
  if (!result.IsFormatted()) {
    return Status::NotFound("page never written");
  }
  // A base image was just verified and a synthesized one arrives stamped;
  // only a replayed image needs a fresh CRC.
  if (!lsns.empty()) result.UpdateCrc();
  if (cache_on) {
    ++cache_stats_.misses;
    // Historical reads must not displace the newer cached version.
    if (!historical) CacheInsert(page, result, read_point);
  }
  return result;
}

void Segment::set_page_cache_budget(uint64_t bytes) {
  cache_budget_bytes_ = bytes;
  if (!CacheEnabled()) {
    CacheClear();
    return;
  }
  while (!page_cache_.empty() &&
         page_cache_.size() * page_size_ > cache_budget_bytes_) {
    auto oldest = cache_lru_.begin();
    page_cache_.erase(oldest->second);
    cache_lru_.erase(oldest);
    ++cache_stats_.evictions;
  }
}

void Segment::CacheInsert(PageId page, const Page& image,
                          Lsn built_lsn) const {
  auto it = page_cache_.find(page);
  if (it != page_cache_.end()) {
    it->second.image = image;
    it->second.built_lsn = built_lsn;
    CacheTouch(&it->second);
    return;
  }
  // Evict to fit the new entry under the byte budget (LRU order).
  while (!page_cache_.empty() &&
         (page_cache_.size() + 1) * page_size_ > cache_budget_bytes_) {
    auto oldest = cache_lru_.begin();
    page_cache_.erase(oldest->second);
    cache_lru_.erase(oldest);
    ++cache_stats_.evictions;
  }
  uint64_t stamp = ++cache_clock_;
  page_cache_.emplace(page, CacheEntry{image, built_lsn, stamp});
  cache_lru_.emplace(stamp, page);
}

void Segment::CacheTouch(CacheEntry* entry) const {
  auto node = cache_lru_.extract(entry->stamp);
  entry->stamp = ++cache_clock_;
  node.key() = entry->stamp;
  cache_lru_.insert(std::move(node));
}

void Segment::CacheErase(PageId page) {
  auto it = page_cache_.find(page);
  if (it == page_cache_.end()) return;
  cache_lru_.erase(it->second.stamp);
  page_cache_.erase(it);
}

void Segment::CacheClear() {
  page_cache_.clear();
  cache_lru_.clear();
}

size_t Segment::GarbageCollect() {
  const Lsn floor = std::min(applied_lsn_, pgmrpl_);
  size_t collected = 0;
  while (!hot_log_.empty() && hot_log_.front().lsn <= floor) {
    const LogRecord& rec = hot_log_.front();
    // GC pops in LSN order, so the page's first visit drops all its
    // collected LSNs at once; later visits find none.
    Unindex(rec.page_id, kInvalidLsn, floor);
    // Collecting this record can strand a cached image of its page:
    // (a) if the image predates the record (built_lsn < lsn), a later
    //     partial replay could no longer find it in the hot log and would
    //     serve the page without it (the full rebuild has it via the base);
    // (b) if the page's base image is gone (dropped for repair, awaiting a
    //     peer copy), this record was the only remaining source of its
    //     data, and a surviving image would outlive the segment's own
    //     knowledge. Reads must degrade exactly as without the cache.
    // Entries for pages untouched by this collection stay valid: their
    // images already reflect everything the hot log is forgetting.
    if (!page_cache_.empty()) {
      auto cit = page_cache_.find(rec.page_id);
      if (cit != page_cache_.end()) {
        auto base_it = base_pages_.find(rec.page_id);
        const bool base_lost = base_it == base_pages_.end() ||
                               !base_it->second.IsFormatted();
        if (base_lost || cit->second.built_lsn < rec.lsn) {
          CacheErase(rec.page_id);
        }
      }
    }
    hot_log_.pop_front();
    ++collected;
  }
  return collected;
}

Status Segment::Truncate(Lsn above, Epoch epoch) {
  if (epoch < epoch_) {
    return Status::Stale("truncate from an older volume epoch");
  }
  epoch_ = epoch;
  AURORA_CHECK(applied_lsn_ <= above,
               "truncation below materialized pages — VDL went backwards");
  while (!hot_log_.empty() && hot_log_.back().lsn > above) {
    Unindex(hot_log_.back().page_id, above, UINT64_MAX);
    hot_log_.pop_back();
  }
  if (scl_ > above) scl_ = above;
  if (max_lsn_ > above) max_lsn_ = above;
  if (backup_lsn_ > above) backup_lsn_ = above;
  // Cached images built beyond the truncation point contain records that no
  // longer exist.
  if (!page_cache_.empty()) {
    CacheEraseIf([above](const CacheEntry& e) { return e.built_lsn > above; });
  }
  return Status::OK();
}

size_t Segment::ScrubPages() {
  size_t corrupt = 0;
  for (const auto& [id, page] : base_pages_) {
    if (!page.VerifyCrc()) {
      corrupt_pages_.insert(id);
      ++corrupt;
    }
  }
  return corrupt;
}

void Segment::DropPageForRepair(PageId page) {
  base_pages_.erase(page);
  corrupt_pages_.erase(page);
  CacheErase(page);
}

void Segment::RestoreBasePage(PageId page, Page healthy) {
  corrupt_pages_.erase(page);
  base_pages_.insert_or_assign(page, std::move(healthy));
  // The installed copy may be ahead of what the cached image was built
  // against; rebuild from the fresh base on the next read.
  CacheErase(page);
}

void Segment::CorruptBasePageForTesting(PageId page) {
  auto it = base_pages_.find(page);
  if (it != base_pages_.end()) it->second.CorruptForTesting(100);
  // Keep reads faithful to the (now corrupt) base image so scrub/repair
  // tests observe the corruption rather than a cached clean copy.
  CacheErase(page);
}

bool Segment::CorruptNthBasePage(uint64_t nth) {
  if (base_pages_.empty()) return false;
  auto it = base_pages_.begin();
  std::advance(it, nth % base_pages_.size());
  if (!it->second.IsFormatted()) return false;
  it->second.CorruptForTesting(100);
  CacheErase(it->first);
  return true;
}

void Segment::SerializeTo(std::string* dst) const {
  PutVarint32(dst, pg_);
  PutVarint64(dst, page_size_);
  PutVarint64(dst, scl_);
  PutVarint64(dst, max_lsn_);
  PutVarint64(dst, vdl_hint_);
  PutVarint64(dst, pgmrpl_);
  PutVarint64(dst, backup_lsn_);
  PutVarint64(dst, epoch_);
  PutVarint64(dst, applied_lsn_);
  PutVarint64(dst, hot_log_.size());
  for (const LogRecord& rec : hot_log_) rec.EncodeTo(dst);
  PutVarint64(dst, base_pages_.size());
  for (const auto& [id, page] : base_pages_) {
    PutVarint64(dst, id);
    PutLengthPrefixedSlice(dst, page.raw());
  }
}

Status Segment::DeserializeFrom(Slice input) {
  uint32_t pg;
  uint64_t page_size, n_records, n_pages;
  if (!GetVarint32(&input, &pg) || !GetVarint64(&input, &page_size) ||
      !GetVarint64(&input, &scl_) || !GetVarint64(&input, &max_lsn_) ||
      !GetVarint64(&input, &vdl_hint_) || !GetVarint64(&input, &pgmrpl_) ||
      !GetVarint64(&input, &backup_lsn_) || !GetVarint64(&input, &epoch_) ||
      !GetVarint64(&input, &applied_lsn_) ||
      !GetVarint64(&input, &n_records)) {
    return Status::Corruption("bad segment state header");
  }
  pg_ = pg;
  page_size_ = page_size;
  hot_log_.clear();
  page_lsns_.clear();
  base_pages_.clear();
  CacheClear();
  for (uint64_t i = 0; i < n_records; ++i) {
    LogRecord rec;
    Status s = LogRecord::DecodeFrom(&input, &rec);
    if (!s.ok()) return s;
    if (!hot_log_.empty() && rec.lsn <= hot_log_.back().lsn) {
      return Status::Corruption("segment records out of LSN order");
    }
    page_lsns_[rec.page_id].push_back(rec.lsn);
    hot_log_.push_back(std::move(rec));
  }
  if (!GetVarint64(&input, &n_pages)) {
    return Status::Corruption("bad segment state pages");
  }
  for (uint64_t i = 0; i < n_pages; ++i) {
    uint64_t id;
    Slice raw;
    if (!GetVarint64(&input, &id) || !GetLengthPrefixedSlice(&input, &raw)) {
      return Status::Corruption("bad segment page entry");
    }
    Result<Page> page = Page::FromImage(raw, page_size_);
    if (!page.ok()) return page.status();
    base_pages_.emplace(id, std::move(*page));
  }
  return Status::OK();
}

uint64_t Segment::ApproximateBytes() const {
  uint64_t bytes = base_pages_.size() * page_size_;
  for (const LogRecord& rec : hot_log_) bytes += rec.EncodedSize();
  return bytes;
}

}  // namespace aurora
