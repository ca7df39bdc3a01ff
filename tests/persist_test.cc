// CRC-32 vectors: the checksum every run fingerprint (the golden CRC, the
// agent pins, chaos and perfbench fingerprints) is built on.

#include <gtest/gtest.h>

#include <string>

#include "persist/crc32.h"

namespace riptide {
namespace {

TEST(Crc32Test, MatchesKnownVectors) {
  // The IEEE 802.3 check value every zlib-compatible CRC32 must produce.
  EXPECT_EQ(persist::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(persist::crc32(""), 0u);
  EXPECT_EQ(persist::crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  const std::string text = "the quick brown fox";
  const auto whole = persist::crc32(text);
  const auto chained =
      persist::crc32(text.substr(4), persist::crc32(text.substr(0, 4)));
  EXPECT_EQ(whole, chained);
}

}  // namespace
}  // namespace riptide
