#pragma once

#include <condition_variable>
#include <mutex>

/// \file thread_annotations.h
/// Clang thread-safety annotations (-Wthread-safety) plus the annotated
/// capability types the rest of the codebase uses instead of naked
/// std::mutex / std::lock_guard. Under Clang the HOH_* macros expand to
/// the `thread_safety` attributes and the analysis enforces, at compile
/// time, that every GUARDED_BY field is only touched with its mutex held
/// and that every REQUIRES method is only called under the right lock.
/// Under other compilers the macros expand to nothing and the wrappers
/// cost exactly one forwarded call.
///
/// Usage pattern:
///
///   class Worker {
///     void drain() HOH_EXCLUDES(mu_);
///    private:
///     common::Mutex mu_;
///     std::deque<Job> queue_ HOH_GUARDED_BY(mu_);
///   };
///
///   void Worker::drain() {
///     common::MutexLock lock(mu_);
///     queue_.clear();
///   }
///
/// See https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for the full
/// attribute semantics. tools/analyze/hoh_analyze.py (conc-naked-primitive)
/// rejects naked std::mutex in src/ so new code cannot bypass the analysis.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define HOH_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef HOH_THREAD_ANNOTATION
#define HOH_THREAD_ANNOTATION(x)  // not supported by this compiler
#endif

/// Marks a type as a lockable capability ("mutex" names the kind).
#define HOH_CAPABILITY(x) HOH_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires a capability for its whole lifetime.
#define HOH_SCOPED_CAPABILITY HOH_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written with the given capability held.
#define HOH_GUARDED_BY(x) HOH_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* is guarded by the given capability.
#define HOH_PT_GUARDED_BY(x) HOH_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held by the caller.
#define HOH_REQUIRES(...) \
  HOH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function must be called *without* the capability held (deadlock guard).
#define HOH_EXCLUDES(...) HOH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and does not release it.
#define HOH_ACQUIRE(...) \
  HOH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define HOH_RELEASE(...) \
  HOH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define HOH_TRY_ACQUIRE(...) \
  HOH_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Declares a lock-ordering edge: this mutex is acquired after \p x.
#define HOH_ACQUIRED_AFTER(...) \
  HOH_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Escape hatch for code the analysis cannot model; use sparingly and
/// justify with a comment.
#define HOH_NO_THREAD_SAFETY_ANALYSIS \
  HOH_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Function returns a reference to the given capability.
#define HOH_RETURN_CAPABILITY(x) HOH_THREAD_ANNOTATION(lock_returned(x))

namespace hoh::common {

/// Annotated mutex. Identical to std::mutex at runtime; under Clang the
/// analysis tracks it as a capability so GUARDED_BY / REQUIRES are
/// enforced at compile time.
class HOH_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HOH_ACQUIRE() { mu_.lock(); }
  void unlock() HOH_RELEASE() { mu_.unlock(); }
  bool try_lock() HOH_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotated scoped lock (the std::lock_guard replacement).
class HOH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HOH_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HOH_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. wait() is annotated REQUIRES so
/// the analysis checks the caller holds the mutex; the predicate loop
/// stays at the call site (`while (!pred()) cv.wait(mu);`), which keeps
/// guarded reads inside the analyzed function body rather than inside an
/// unannotated lambda.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) HOH_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scope
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hoh::common
