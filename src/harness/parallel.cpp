#include "harness/parallel.h"

#include <thread>

namespace robustify::harness {

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace robustify::harness
