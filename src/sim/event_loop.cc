#include "sim/event_loop.h"

#include <utility>

namespace aurora::sim {

namespace {

constexpr uint32_t SlotOf(EventId id) {
  return static_cast<uint32_t>(id & 0xFFFFFFFFu);
}
constexpr uint32_t GenOf(EventId id) { return static_cast<uint32_t>(id >> 32); }
constexpr EventId MakeId(uint32_t gen, uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

uint32_t EventLoop::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::HeapPush(HeapEntry e) {
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!(heap_[i] < heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
  if (heap_.size() > heap_peak_) heap_peak_ = heap_.size();
}

void EventLoop::HeapPopMin() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  size_t i = 0;
  for (;;) {
    size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    size_t last_child = first_child + kArity;
    if (last_child > n) last_child = n;
    size_t min_child = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c] < heap_[min_child]) min_child = c;
    }
    if (!(heap_[min_child] < heap_[i])) break;
    std::swap(heap_[i], heap_[min_child]);
    i = min_child;
  }
}

void EventLoop::PurgeTop() {
  while (!heap_.empty() && !slots_[heap_[0].slot].live) {
    free_slots_.push_back(heap_[0].slot);
    HeapPopMin();
  }
}

EventId EventLoop::ScheduleAt(SimTime t, EventFn fn) {
  if (t < now_) t = now_;
  uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  HeapPush(HeapEntry{t, next_seq_++, slot});
  ++live_count_;
  return MakeId(s.gen, slot);
}

bool EventLoop::Cancel(EventId id) {
  uint32_t slot = SlotOf(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != GenOf(id)) return false;
  // Destroy the closure now so captured resources (pages, shared_ptrs to
  // engines) are released at cancellation time, exactly as with an eager
  // queue erase. The heap entry stays behind as a tombstone; the slot is
  // recycled when the entry surfaces at the top.
  s.fn.reset();
  s.live = false;
  ++s.gen;
  ++tombstones_;
  --live_count_;
  return true;
}

bool EventLoop::RunOne() {
  PurgeTop();
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  Slot& s = slots_[top.slot];
  now_ = top.time;
  // Move the closure out and retire the slot before invoking, so the event
  // can freely schedule/cancel (even reusing this very slot).
  EventFn fn = std::move(s.fn);
  s.fn.reset();
  s.live = false;
  ++s.gen;
  --live_count_;
  free_slots_.push_back(top.slot);
  HeapPopMin();
  ++executed_;
  fn();
  return true;
}

void EventLoop::Run() {
  while (RunOne()) {
  }
}

void EventLoop::RunUntil(SimTime t) {
  for (;;) {
    PurgeTop();
    if (heap_.empty() || heap_[0].time > t) break;
    RunOne();
  }
  if (now_ < t) now_ = t;
}

}  // namespace aurora::sim
