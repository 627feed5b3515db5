// Byte-exact golden files for the test suites. A golden is a checked-in
// file under tests/golden/; a test renders its text and calls
// ExpectMatchesGolden. Run a suite with MEPIPE_UPDATE_GOLDENS=1 and the
// helper rewrites each golden it reaches instead of comparing (see
// tests/golden/README.md).
#ifndef MEPIPE_TESTS_GOLDEN_H_
#define MEPIPE_TESTS_GOLDEN_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace mepipe {

// 64-bit FNV-1a, the hash golden lines record for whole serialized
// schedules.
inline std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  return hash;
}

inline void ExpectMatchesGolden(const std::string& name, const std::string& text) {
  const std::string path = std::string(MEPIPE_TESTS_DIR) + "/golden/" + name;
  const char* update = std::getenv("MEPIPE_UPDATE_GOLDENS");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    ASSERT_TRUE(out.good()) << "write to " << path << " failed";
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str()) << "golden " << name << " differs";
}

}  // namespace mepipe

#endif  // MEPIPE_TESTS_GOLDEN_H_
