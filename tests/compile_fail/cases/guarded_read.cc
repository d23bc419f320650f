// MUST NOT COMPILE under -Wthread-safety -Werror=thread-safety.
//
// Reads a CAPEFP_GUARDED_BY member without holding its mutex — the exact
// bug class the annotations on the BufferPool frame table and stats and
// the Pager's stats exist to prevent. The harness asserts the
// compiler rejects this TU with a diagnostic matching
// "requires holding mutex".
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace {

class Stats {
 public:
  // BAD: no lock held; mirrors what BufferPool::stats() would be if it
  // dropped its MutexLock.
  int Unsafe() const { return value_; }

 private:
  mutable capefp::util::Mutex mu_;
  int value_ CAPEFP_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Stats s;
  return s.Unsafe();
}
