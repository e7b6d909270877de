#ifndef AURORA_ENGINE_RESTART_LOOP_H_
#define AURORA_ENGINE_RESTART_LOOP_H_

#include <functional>
#include <map>
#include <vector>

#include "common/result.h"
#include "engine/buffer_pool.h"
#include "log/types.h"

namespace aurora {

/// The optimistic-restart loop (LeanStore-style) of every engine that reads
/// through a BufferPool: the writer, the read replicas and the mirrored-MySQL
/// baseline.
///
/// An attempt runs one operation from scratch. When it touches a page that
/// is not resident, the owner's GetPage starts the fetch, calls NoteMiss()
/// and returns Busy; the attempt unwinds (aborting its MTR) and the loop
/// parks it on the missed page. Once the owner has installed that page it
/// calls PageInstalled(), which evicts at the safe point and re-runs every
/// attempt parked there. An attempt that finishes (anything but a page-miss
/// Busy) is followed by eviction at the safe point, the owner's
/// `before_done` step, and its `done`.
class RestartLoop {
 public:
  using Attempt = std::function<Status()>;
  using Done = std::function<void(Status)>;

  /// `before_done`, if set, runs after every finished attempt's eviction and
  /// before its `done`.
  explicit RestartLoop(BufferPool* pool,
                       std::function<void()> before_done = nullptr)
      : pool_(pool), before_done_(std::move(before_done)) {}

  RestartLoop(const RestartLoop&) = delete;
  RestartLoop& operator=(const RestartLoop&) = delete;

  /// Called by the owner's GetPage when `id` is not resident.
  void NoteMiss(PageId id) { last_miss_ = id; }

  /// Runs `attempt` now and again after each page miss it hits, then calls
  /// `done` with its final status.
  void Run(Attempt attempt, Done done);

  /// Parks `resume` on `page`; it is called with OK once the page is
  /// installed. For loops that keep their own progress (WAL replay).
  void Park(PageId page, Done resume);

  /// `id` was just installed in the pool: evicts at the safe point (no
  /// attempt is on the stack) and re-runs what was parked on it.
  void PageInstalled(PageId id);

  /// Drops every parked attempt unrun (crash, fencing).
  void Clear() { page_waiters_.clear(); }

 private:
  struct Parked {
    Attempt attempt;  // empty for Park()
    Done done;
  };

  BufferPool* pool_;
  std::function<void()> before_done_;
  std::map<PageId, std::vector<Parked>> page_waiters_;
  PageId last_miss_ = kInvalidPage;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_RESTART_LOOP_H_
