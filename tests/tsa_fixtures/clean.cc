// TSA positive fixture: exercises the whole annotated wrapper API
// correctly and MUST compile warning-free under -Wthread-safety
// -Wthread-safety-beta -Werror. A false positive here means the
// wrappers themselves (capability/scoped-capability/REQUIRES/
// ACQUIRE/RELEASE attributes) regressed. Checked by
// tests/tsa_test.sh.
#include <cstddef>
#include <deque>

#include "common/thread_annotations.h"

namespace geoalign::tsa_fixture {

class Queue {
 public:
  // RAII acquisition + guarded predicate loop (a work-queue idiom).
  int Pop() {
    common::MutexLock lock(mu_);
    while (!stopping_ && items_.empty()) cv_.Wait(mu_);
    if (items_.empty()) return -1;
    int v = items_.front();
    items_.pop_front();
    return v;
  }

  void Push(int v) {
    {
      common::MutexLock lock(mu_);
      items_.push_back(v);
    }
    cv_.NotifyOne();
  }

  void Stop() GEOALIGN_EXCLUDES(mu_) {
    {
      common::MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.NotifyAll();
  }

  // Manual acquire/release entry points, annotated.
  void Lock() GEOALIGN_ACQUIRE(mu_) { mu_.Lock(); }
  void Unlock() GEOALIGN_RELEASE(mu_) { mu_.Unlock(); }
  size_t SizeLocked() const GEOALIGN_REQUIRES(mu_) {
    return items_.size();
  }

  // TryLock with conditional release.
  bool TryDrain() {
    if (!mu_.TryLock()) return false;
    items_.clear();
    mu_.Unlock();
    return true;
  }

  // AssertHeld: the caller acquired mu_ through Lock() above — a
  // channel the analysis follows here, but the assertion form must
  // also compile.
  size_t SizeAsserted() const {
    mu_.AssertHeld();
    return items_.size();
  }

 private:
  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::deque<int> items_ GEOALIGN_GUARDED_BY(mu_);
  bool stopping_ GEOALIGN_GUARDED_BY(mu_) = false;
};

size_t UseManualSection(Queue& q) {
  q.Lock();
  size_t n = q.SizeLocked();
  q.Unlock();
  return n;
}

}  // namespace geoalign::tsa_fixture
