#ifndef GEOALIGN_COMMON_THREAD_ANNOTATIONS_H_
#define GEOALIGN_COMMON_THREAD_ANNOTATIONS_H_

// Compile-time concurrency contracts (docs/static_analysis.md).
//
// This header is the ONLY place in src/ allowed to name the raw std
// locking primitives (enforced by the `geoalign-raw-mutex` lint): it
// provides (a) the Clang Thread Safety Analysis attribute macros and
// (b) thin annotated wrappers — common::Mutex, common::MutexLock,
// common::CondVar — over std::mutex / std::condition_variable. With
// the wrappers, every guarded-by relationship in the tree is a
// *capability contract* the compiler checks: a clang build with
// -Wthread-safety -Wthread-safety-beta (CMake option
// GEOALIGN_THREAD_SAFETY, ci gate `tsa`) turns an unguarded read, a
// missing-REQUIRES call, a double lock, or an unlock-without-lock into
// a build error. On compilers without the capability attribute system
// (GCC) every macro expands to nothing and the wrappers are zero-cost
// forwarding shims, so the annotations never change codegen.
//
// Deliberately header-only and standard-library-only: src/obs/ sits
// below common in the link graph (parallel_for and logging are
// themselves instrumented) yet guards its registries with these
// wrappers, so this header must behave like <mutex> itself — no
// logging, no status, no link dependency on geoalign_common.
//
// The negative-compile fixtures in tests/tsa_fixtures/ (driven by
// tests/tsa_test.sh) regression-test the annotations themselves: each
// fixture seeds one locking bug that MUST fail to compile under
// -Wthread-safety, so a wrapper edit that silently weakens the
// analysis breaks the `tsa` gate.

#include <condition_variable>
#include <mutex>

// Attribute shim. Clang's spelling of the capability system; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html. Gated on
// __clang__ because GCC would emit -Wattributes (fatal under -Werror)
// for the unknown attributes.
#if defined(__clang__)
#define GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability (names it in diagnostics).
#define GEOALIGN_CAPABILITY(x) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define GEOALIGN_SCOPED_CAPABILITY \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define GEOALIGN_GUARDED_BY(x) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x` (the pointer
/// itself may be read freely).
#define GEOALIGN_PT_GUARDED_BY(x) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Documents (and checks) lock-ordering edges between two mutexes.
#define GEOALIGN_ACQUIRED_BEFORE(...) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define GEOALIGN_ACQUIRED_AFTER(...) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function precondition: the listed capabilities are held on entry
/// and still held on exit. The `*Locked` private-helper idiom
/// (e.g. PlanCache::EvictLocked) pairs the name suffix with this
/// attribute so the contract is visible both to readers and the
/// analysis.
#define GEOALIGN_REQUIRES(...) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define GEOALIGN_REQUIRES_SHARED(...)     \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(   \
      requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the listed capabilities.
#define GEOALIGN_ACQUIRE(...) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define GEOALIGN_RELEASE(...) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define GEOALIGN_TRY_ACQUIRE(...)       \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE( \
      try_acquire_capability(__VA_ARGS__))

/// Function must be called with the listed capabilities NOT held
/// (deadlock prevention for self-locking entry points).
#define GEOALIGN_EXCLUDES(...) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Tells the analysis a capability is held without acquiring it
/// (runtime-checked entry points from external callers).
#define GEOALIGN_ASSERT_CAPABILITY(x) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function returns a reference to the named capability.
#define GEOALIGN_RETURN_CAPABILITY(x) \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Policy
/// (docs/static_analysis.md): requires a comment explaining why the
/// analysis cannot see the invariant; never used to silence a real
/// finding.
#define GEOALIGN_NO_THREAD_SAFETY_ANALYSIS \
  GEOALIGN_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace geoalign::common {

/// Annotated exclusive mutex over std::mutex. Same cost, but a
/// *capability* to the analysis: members declare
/// `GEOALIGN_GUARDED_BY(mu_)`, helpers declare
/// `GEOALIGN_REQUIRES(mu_)`, and clang proves every access site.
class GEOALIGN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GEOALIGN_ACQUIRE() { mu_.lock(); }
  void Unlock() GEOALIGN_RELEASE() { mu_.unlock(); }
  bool TryLock() GEOALIGN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Analysis-only assertion that the calling context holds this
  /// mutex (std::mutex cannot be queried at runtime). Use at entry
  /// points whose callers acquired the lock through a channel the
  /// analysis cannot follow; pair with a comment naming that channel.
  void AssertHeld() const GEOALIGN_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex — the project's only blessed way to hold one
/// (a scoped capability: clang tracks acquisition at construction and
/// release at scope exit, so an early return can never leak the lock).
class GEOALIGN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GEOALIGN_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~MutexLock() GEOALIGN_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to common::Mutex. Wait requires the mutex
/// held (checked); the predicate loop stays at the call site —
/// `while (!pred()) cv_.Wait(mu_);` — so guarded reads in the
/// predicate are visible to the analysis instead of hidden inside a
/// lambda it cannot attribute. No library code waits on one today;
/// the tsa fixtures (tests/tsa_fixtures/) still exercise it, so the
/// annotated wait protocol stays checked for the next user.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before
  /// returning (spurious wakeups possible — always loop).
  void Wait(Mutex& mu) GEOALIGN_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait protocol, then
    // release the unique_lock wrapper without unlocking: ownership
    // stays with the caller's MutexLock exactly as the annotation
    // says.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace geoalign::common

#endif  // GEOALIGN_COMMON_THREAD_ANNOTATIONS_H_
