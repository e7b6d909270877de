#include "engine/restart_loop.h"

namespace aurora {

void RestartLoop::Run(Attempt attempt, Done done) {
  last_miss_ = kInvalidPage;
  Status s = attempt();
  if (s.IsBusy() && last_miss_ != kInvalidPage) {
    page_waiters_[last_miss_].push_back({std::move(attempt), std::move(done)});
    return;
  }
  // Safe point for eviction: the attempt is finished, nothing holds raw
  // page pointers.
  pool_->EvictExcess();
  if (before_done_) before_done_();
  done(s);
}

void RestartLoop::Park(PageId page, Done resume) {
  page_waiters_[page].push_back({nullptr, std::move(resume)});
}

void RestartLoop::PageInstalled(PageId id) {
  pool_->EvictExcess();
  auto it = page_waiters_.find(id);
  if (it == page_waiters_.end()) return;
  std::vector<Parked> parked = std::move(it->second);
  page_waiters_.erase(it);
  for (Parked& p : parked) {
    if (p.attempt) {
      Run(std::move(p.attempt), std::move(p.done));
    } else {
      p.done(Status::OK());
    }
  }
}

}  // namespace aurora
