#ifndef AURORA_COMMON_THREAD_ANNOTATIONS_H_
#define AURORA_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>

/// Clang thread-safety-analysis annotations for the few structures that may
/// be shared across threads (today: MetricsRegistry). Under Clang with
/// `-Wthread-safety` (the CI lint job) the compiler statically proves that
/// every access to a `GUARDED_BY(mu)` member happens while `mu` is held;
/// GCC compiles the attributes away to nothing.
///
/// Conventions for this codebase:
///  - a shared structure declares `mutable aurora::Mutex mu_;` and marks
///    every member it protects `GUARDED_BY(mu_)`;
///  - methods that require the caller to hold the lock are annotated
///    `REQUIRES(mu_)`; public methods take the lock themselves with
///    `aurora::MutexLock lock(&mu_);`
///  - single-threaded-by-design state (everything driven by a cluster's one
///    EventLoop) stays unannotated — annotations mark the *shared* surface,
///    which must stay small.

#if defined(__clang__)
#define AURORA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define AURORA_THREAD_ANNOTATION(x)
#endif

#define CAPABILITY(x) AURORA_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY AURORA_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) AURORA_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) AURORA_THREAD_ANNOTATION(pt_guarded_by(x))
#define REQUIRES(...) \
  AURORA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) AURORA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) AURORA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  AURORA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) AURORA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) AURORA_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  AURORA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace aurora {

/// std::mutex wrapper carrying the `capability` attribute so it can appear
/// in GUARDED_BY/REQUIRES clauses.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock holder (`aurora::MutexLock lock(&mu_);`).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace aurora

#endif  // AURORA_COMMON_THREAD_ANNOTATIONS_H_
