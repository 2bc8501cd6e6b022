#include "apps/common_ops.h"

#include <chrono>

namespace brisk::apps {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace brisk::apps
