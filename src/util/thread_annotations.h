// Clang thread-safety annotations and the capability-annotated mutex the
// concurrent core locks with.
//
// Under clang with -Wthread-safety (the NGD_LINT build), lock discipline
// becomes a compile-time property: a member declared
//
//   std::deque<T> items_ NGD_GUARDED_BY(mu_);
//
// cannot be read or written without holding mu_, a function annotated
// NGD_REQUIRES(mu_) cannot be called without it, and forgetting to release
// is a build error. Off clang (gcc, MSVC) every macro expands to nothing
// and Mutex/MutexLock degrade to plain std::mutex wrappers, so the
// annotations cost nothing anywhere and catch bugs where the analysis
// exists. See https://clang.llvm.org/docs/ThreadSafetyAnalysis.html.
//
// Use ngd::Mutex + ngd::MutexLock (not std::mutex + std::lock_guard) for
// any newly guarded state: the std types carry no capability attributes,
// so the analysis cannot see them.

#ifndef NGD_UTIL_THREAD_ANNOTATIONS_H_
#define NGD_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__)
#define NGD_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define NGD_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op off clang
#endif

/// Declares a type to be a capability (lockable).
#define NGD_CAPABILITY(x) NGD_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII type whose lifetime is a critical section.
#define NGD_SCOPED_CAPABILITY \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Member data that may only be touched while `x` is held.
#define NGD_GUARDED_BY(x) NGD_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself
/// is not).
#define NGD_PT_GUARDED_BY(x) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// The function may only be called while holding the given capabilities.
#define NGD_REQUIRES(...) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define NGD_ACQUIRE(...) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// The function releases the capability (which must be held on entry).
#define NGD_RELEASE(...) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// The function must NOT be called while holding the capability (guards
/// against self-deadlock on non-reentrant mutexes).
#define NGD_EXCLUDES(...) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Lock-ordering declarations (deadlock prevention).
#define NGD_ACQUIRED_BEFORE(...) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define NGD_ACQUIRED_AFTER(...) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define NGD_RETURN_CAPABILITY(x) \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: the function is exempt from analysis. Every use must
/// carry a comment explaining why the discipline holds anyway.
#define NGD_NO_THREAD_SAFETY_ANALYSIS \
  NGD_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace ngd {

/// std::mutex with the capability attribute the analysis needs. Same
/// cost, same semantics; Lock/Unlock naming follows the annotation
/// vocabulary.
class NGD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NGD_ACQUIRE() { mu_.lock(); }
  void Unlock() NGD_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over ngd::Mutex (the annotated lock_guard).
class NGD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) NGD_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() NGD_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace ngd

#endif  // NGD_UTIL_THREAD_ANNOTATIONS_H_
