// The benchmark's speed reference: a fixed amount of work that shares no
// code with qpwm. The benchmark runs it between the timed operations, in the
// same kind of process as the operations (a fresh qpwm_reference process
// beside CLI invocations, the long-lived helper beside in-process ones), and
// scales every reported time by REFERENCE_MS / (its median in the same run),
// so that a host that is faster or slower for a while moves both alike.
// The work mirrors what a qpwm operation does: format a
// table as text, parse it back, aggregate it in hash maps and sort it, then
// look keys up at random in a hash map of tens of MB — a host's shared cache
// and memory bandwidth slow the program down most, so the reference has to
// depend on them too. Its containers live in a mapping of their own, so a
// run leaves the process's resident set as it found it.
#include "reference.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory_resource>
#include <new>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

// Bump allocation from one private anonymous mapping; munmap hands every
// page back to the kernel.
class MappedArena : public std::pmr::memory_resource {
 public:
  explicit MappedArena(size_t bytes)
      : size_(bytes),
        base_(static_cast<char*>(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))) {
    if (base_ == MAP_FAILED) throw std::bad_alloc();
  }
  ~MappedArena() override { munmap(base_, size_); }

 private:
  void* do_allocate(size_t bytes, size_t align) override {
    used_ = (used_ + align - 1) / align * align;
    if (used_ + bytes > size_) throw std::bad_alloc();
    void* p = base_ + used_;
    used_ += bytes;
    return p;
  }
  void do_deallocate(void*, size_t, size_t) override {}
  bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  size_t size_;
  size_t used_ = 0;
  char* base_;
};

}  // namespace

uint64_t RunReference() {
  constexpr int kRows = 50000;
  constexpr int kKeys = 12500;
  MappedArena arena(size_t{256} << 20);
  std::mt19937_64 rng(20240501);
  std::pmr::string text(&arena);
  for (int i = 0; i < kRows; ++i) {
    text += "O" + std::to_string(i) + ",C" + std::to_string(rng() % kKeys) + "," +
            std::to_string(100 + rng() % 9900) + "\n";
  }

  std::pmr::vector<std::pair<std::string, int64_t>> rows(&arena);
  std::pmr::unordered_map<std::string, int64_t> sums(&arena);
  std::pmr::unordered_map<std::string, std::pmr::vector<size_t>> members(&arena);
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    const size_t c1 = text.find(',', start);
    const size_t c2 = text.find(',', c1 + 1);
    std::string key(text.data() + c1 + 1, c2 - c1 - 1);
    const int64_t value = std::strtoll(text.data() + c2 + 1, nullptr, 10);
    sums[key] += value;
    members[key].push_back(rows.size());
    rows.emplace_back(std::move(key), value);
    start = end + 1;
  }
  std::sort(rows.begin(), rows.end());

  uint64_t check = 1469598103934665603ull;
  for (const auto& [key, value] : rows) {
    check = (check ^ static_cast<uint64_t>(sums[key] * 31 + value)) * 1099511628211ull;
    check ^= members[key].size();
  }

  constexpr uint64_t kTableKeys = 1 << 19;
  constexpr int kLookups = 600000;
  std::pmr::unordered_map<uint64_t, uint64_t> table(&arena);
  table.reserve(kTableKeys);
  for (uint64_t i = 0; i < kTableKeys; ++i) table.emplace(i * 0x9E3779B97F4A7C15ull, i);
  for (int i = 0; i < kLookups; ++i) {
    const auto it = table.find((rng() % kTableKeys) * 0x9E3779B97F4A7C15ull);
    check = (check ^ it->second) * 1099511628211ull;
  }
  return check;
}

}  // namespace perfbench
