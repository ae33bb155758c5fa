#include "core/counter.h"
namespace xydiff {
void Counter::BumpTwice() {
  {
    MutexLock first(mu_);
    ++value_;
  }
  MutexLock second(mu_);
  ++value_;
}
}  // namespace xydiff
