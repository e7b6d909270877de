#ifndef AURORA_SIM_EVENT_LOOP_H_
#define AURORA_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"

namespace aurora::sim {

/// Identifier of a scheduled event; usable to cancel it. Encodes a slot
/// index plus a generation, so ids stay unique forever while slot storage is
/// recycled. 0 is never a valid id.
using EventId = uint64_t;

/// Closure type for scheduled events. 128 inline bytes fit the kernel's
/// composed hot-path closures (network delivery: this + a ~88-byte Message;
/// disk completion: this + a 112-byte Disk::Callback) without a heap
/// allocation.
using EventFn = InlineFunction<void(), 128>;

/// Deterministic discrete-event scheduler with a virtual clock.
///
/// All simulated components (network links, disks, storage nodes, database
/// instances, failure injectors) schedule closures here. Events at the same
/// virtual time run in schedule order (FIFO), which — together with every
/// component drawing randomness from its own seeded stream — makes entire
/// cluster runs bit-for-bit reproducible.
///
/// Implementation: a 4-ary min-heap ordered by (time, schedule sequence)
/// over recycled slots, with lazy cancellation. Cancel() destroys the
/// closure immediately (releasing captured resources) and tombstones the
/// slot; the heap entry is purged when it reaches the top. pending() counts
/// only live events, so queue-growth regression tests keep their meaning.
///
/// One loop drives a whole cluster: every component shares it, so an event
/// may touch any component's state directly (DESIGN.md §11 records why the
/// simulator stays serial).
class EventLoop {
 public:
  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time (microseconds since simulation start).
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after now. Returns an id for Cancel().
  EventId Schedule(SimDuration delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `t` (clamped to now).
  EventId ScheduleAt(SimTime t, EventFn fn);

  /// Cancels a pending event; returns false if it already ran or is unknown.
  /// O(1): the closure is destroyed now, the heap entry lazily later.
  bool Cancel(EventId id);

  /// Runs a single event; returns false if none are pending.
  bool RunOne();

  /// Runs until the queue is empty.
  void Run();

  /// Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(SimTime t);

  /// Runs events for `d` more simulated time.
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

  /// Number of live (scheduled, not cancelled, not yet run) events.
  size_t pending() const { return live_count_; }
  uint64_t events_executed() const { return executed_; }
  /// Cumulative count of cancelled events (lazy-cancellation tombstones).
  uint64_t tombstones() const { return tombstones_; }
  /// High-water mark of heap entries (live + not-yet-purged tombstones).
  size_t heap_peak() const { return heap_peak_; }

 private:
  struct HeapEntry {
    SimTime time;
    uint64_t seq;    // monotonic schedule counter: FIFO among equal times
    uint32_t slot;
    bool operator<(const HeapEntry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  struct Slot {
    EventFn fn;
    uint32_t gen = 1;   // bumped on reuse; id 0 (gen 0) is never issued
    bool live = false;
  };

  static constexpr size_t kArity = 4;

  uint32_t AllocSlot();
  void HeapPush(HeapEntry e);
  // Removes the minimum entry. Pre: heap_ non-empty.
  void HeapPopMin();
  // Drops tombstoned entries off the top so heap_[0] (if any) is live.
  void PurgeTop();

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  uint64_t executed_ = 0;
  uint64_t tombstones_ = 0;
  size_t heap_peak_ = 0;
};

}  // namespace aurora::sim

#endif  // AURORA_SIM_EVENT_LOOP_H_
