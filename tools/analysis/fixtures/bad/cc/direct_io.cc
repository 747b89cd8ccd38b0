// Fixture: direct stdio in a sink-enforced layer (path contains
// "cc/"). Every line below must trip the direct-io rule; the comment
// mentioning printf() must not.
#include <cstdio>
#include <iostream>

void leak_debug_output(int cwnd) {
  std::printf("cwnd=%d\n", cwnd);          // direct-io
  std::cout << "cwnd=" << cwnd << "\n";    // direct-io
  std::fputs("entering recovery\n", stderr);  // direct-io
}
