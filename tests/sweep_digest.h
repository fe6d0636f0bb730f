// A pinned digest over every seed's outcome of a seeded sweep.
//
// The sweeps rerun each seed and compare it with itself, which proves
// determinism but lets a deterministic change to an outcome pass. Folding
// every seed's outcome into one FNV-1a digest and asserting a stored
// constant catches that too. When a change moves an outcome on purpose,
// update the constant and explain each changed seed in CHANGES.md.

#ifndef TESTS_SWEEP_DIGEST_H_
#define TESTS_SWEEP_DIGEST_H_

#include <cstdint>
#include <string>

namespace enoki {

class SweepDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Mix(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) {
      Mix(static_cast<uint8_t>(c));
    }
  }

  uint64_t value() const { return h_; }

 private:
  void Mix(uint8_t byte) {
    h_ ^= byte;
    h_ *= 1099511628211ull;
  }

  uint64_t h_ = 14695981039346656037ull;
};

}  // namespace enoki

#endif  // TESTS_SWEEP_DIGEST_H_
