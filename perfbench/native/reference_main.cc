// qpwm_reference: runs the benchmark's speed reference once in a fresh
// process and prints its checksum.
#include <cstdio>

#include "reference.h"

int main() {
  std::printf("%016llx\n", static_cast<unsigned long long>(perfbench::RunReference()));
  return 0;
}
