// Positive control for the negative-compile harness: this TU includes the
// real annotated headers (storage buffer pool and pager, metrics) and
// performs a correctly locked guarded access. It MUST compile under
// -Wthread-safety -Werror=thread-safety — if it doesn't, the harness is
// broken (stale include paths, bad flags), and the "expected failures"
// below would pass for the wrong reason.
#include "src/obs/metrics.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/pager.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace {

// The annotated-counter pattern used across the repo, locked correctly.
class Guarded {
 public:
  int Get() const {
    capefp::util::MutexLock lock(&mu_);
    return value_;
  }
  void Bump() {
    capefp::util::MutexLock lock(&mu_);
    ++value_;
  }

 private:
  mutable capefp::util::Mutex mu_;
  int value_ CAPEFP_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Guarded g;
  g.Bump();
  return g.Get();
}
