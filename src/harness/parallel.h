// Worker-count resolution for the campaign runner and the benches.
#pragma once

namespace robustify::harness {

// An explicit request (> 0) wins, else hardware concurrency.  Always at
// least 1.
int ResolveThreadCount(int requested);

}  // namespace robustify::harness
