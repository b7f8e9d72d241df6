// Unit tests for the common utilities (units, blobs, serialisation, stats,
// tables, RNG, checks, flat sets).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/blob.h"
#include "common/error.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace elan {
namespace {

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(2_GiB, 2ull * 1024 * 1024 * 1024);
}

TEST(Units, BandwidthHelpers) {
  EXPECT_DOUBLE_EQ(gib_per_sec(1.0), 1024.0 * 1024.0 * 1024.0);
  // 56 Gbps InfiniBand: 7e9 bytes/s.
  EXPECT_DOUBLE_EQ(gbit_per_sec(56.0), 7e9);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(milliseconds(1.0), 1e-3);
  EXPECT_DOUBLE_EQ(microseconds(1.0), 1e-6);
  EXPECT_DOUBLE_EQ(hours(2.0), 7200.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(3_GiB), "3.00 GiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.0000005), "0.50 us");
  EXPECT_EQ(format_seconds(0.0025), "2.50 ms");
  EXPECT_EQ(format_seconds(1.5), "1.50 s");
  EXPECT_EQ(format_seconds(3600.0), "60.00 min");
}

// ---------------------------------------------------------------------------
// Blob
// ---------------------------------------------------------------------------

TEST(Blob, FillPatternIsDeterministic) {
  Blob a("x", 1024);
  Blob b("x", 1024);
  a.fill_pattern(7);
  b.fill_pattern(7);
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a, b);
}

TEST(Blob, DifferentSeedsDiffer) {
  Blob a("x", 1024);
  Blob b("x", 1024);
  a.fill_pattern(7);
  b.fill_pattern(8);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Blob, CopyFromMatches) {
  Blob a("x", 256);
  Blob b("x", 256);
  a.fill_pattern(42);
  b.copy_from(a);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(Blob, CopyFromRejectsSizeMismatch) {
  Blob a("x", 256);
  Blob b("x", 128);
  EXPECT_THROW(b.copy_from(a), InvalidArgument);
}

TEST(Blob, QuickFingerprintTracksContent) {
  Blob a("x", 64_KiB);
  a.fill_pattern(1);
  const auto f1 = a.quick_fingerprint();
  a.fill_pattern(2);
  EXPECT_NE(f1, a.quick_fingerprint());
}

TEST(Blob, KeystreamTailTakesTheLowBytesOfTheNextWord) {
  // One generator step per 8-byte word: a 13-byte stream is the first 13
  // bytes of the 16-byte one, on every host byte order.
  std::vector<std::uint8_t> shorter(13, 0);
  std::vector<std::uint8_t> longer(16, 0);
  xor_keystream(shorter, 99);
  xor_keystream(longer, 99);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()));
  EXPECT_NE(shorter, std::vector<std::uint8_t>(13, 0));
}

TEST(Blob, EmptyChecksumIsStable) {
  Blob a;
  Blob b;
  EXPECT_EQ(a.checksum(), b.checksum());
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

TEST(Require, ComposedMessageIsBuiltOnlyOnFailure) {
  int built = 0;
  const auto message = [&built] {
    ++built;
    return "GPU id out of range: " + std::to_string(99);
  };
  ELAN_REQUIRE(1 < 2, message());
  EXPECT_EQ(built, 0);
  try {
    ELAN_REQUIRE(2 < 1, message());
    FAIL() << "ELAN_REQUIRE did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "invalid argument: GPU id out of range: 99");
  }
  EXPECT_EQ(built, 1);
}

// ---------------------------------------------------------------------------
// FlatSet64
// ---------------------------------------------------------------------------

TEST(FlatSet64, InsertReportsFreshness) {
  FlatSet64 set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.insert(43));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatSet64, StoresEveryValueIncludingTheEmptyMarker) {
  FlatSet64 set;
  const std::uint64_t all_ones = ~std::uint64_t{0};
  EXPECT_TRUE(set.insert(all_ones));
  EXPECT_FALSE(set.insert(all_ones));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatSet64, GrowsKeepingEveryMember) {
  // Socket-style ids: a pid in the high bits, a counter below.
  FlatSet64 set;
  const std::uint64_t base = (std::uint64_t{4321} << 48) ^ 987654321ULL;
  for (std::uint64_t i = 0; i < 10'000; ++i) ASSERT_TRUE(set.insert(base + i)) << i;
  EXPECT_EQ(set.size(), 10'000u);
  for (std::uint64_t i = 0; i < 10'000; ++i) ASSERT_FALSE(set.insert(base + i)) << i;
  EXPECT_TRUE(set.insert(base + 10'000));
}

// The compact tier keeps the low word of values sharing the first value's
// high word; everything else lands in the 64-bit side set. Membership must
// not depend on which tier holds a value.
TEST(FlatSet64, IdsCrossingA32BitBoundaryStayDistinct) {
  FlatSet64 set;
  const std::uint64_t boundary = std::uint64_t{7} << 32;
  for (std::uint64_t v = boundary - 2'000; v < boundary + 2'000; ++v) {
    ASSERT_TRUE(set.insert(v)) << v;
  }
  EXPECT_EQ(set.size(), 4'000u);
  for (std::uint64_t v = boundary - 2'000; v < boundary + 2'000; ++v) {
    ASSERT_FALSE(set.insert(v)) << v;
  }
  // Same low words under the other high word are different values.
  EXPECT_TRUE(set.insert(boundary + (std::uint64_t{1} << 32)));
  EXPECT_TRUE(set.insert((boundary - 1) - (std::uint64_t{1} << 32)));
}

TEST(FlatSet64, LowWordOfAllOnesIsStored) {
  FlatSet64 set;
  const std::uint64_t high = std::uint64_t{0x1234} << 32;
  EXPECT_TRUE(set.insert(high | 1));
  EXPECT_TRUE(set.insert(high | 0xFFFFFFFFULL));  // the 4-byte empty marker
  EXPECT_FALSE(set.insert(high | 0xFFFFFFFFULL));
  EXPECT_TRUE(set.insert(0xFFFFFFFFULL));  // same low word, high word 0
  EXPECT_FALSE(set.insert(high | 1));
  EXPECT_EQ(set.size(), 3u);
}

TEST(FlatSet64, AllOnesValueUnderAnyFirstHighWord) {
  const std::uint64_t all_ones = ~std::uint64_t{0};
  for (const std::uint64_t first : {std::uint64_t{5}, all_ones - 1, all_ones}) {
    FlatSet64 set;
    EXPECT_TRUE(set.insert(first)) << first;
    EXPECT_EQ(set.insert(all_ones), first != all_ones) << first;
    EXPECT_FALSE(set.insert(all_ones)) << first;
    EXPECT_FALSE(set.insert(first)) << first;
    EXPECT_EQ(set.size(), first == all_ones ? 1u : 2u) << first;
  }
}

TEST(FlatSet64, InterleavedHighWordsKeepEveryMember) {
  FlatSet64 set;
  // Three senders' worth of high words, inserted round-robin.
  const std::uint64_t highs[] = {std::uint64_t{3} << 32, std::uint64_t{0xABCDEF} << 40,
                                 std::uint64_t{3} << 33};
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    for (const std::uint64_t high : highs) ASSERT_TRUE(set.insert(high | i)) << (high | i);
  }
  EXPECT_EQ(set.size(), 9'000u);
  for (std::uint64_t i = 0; i < 3'000; ++i) {
    for (const std::uint64_t high : highs) ASSERT_FALSE(set.insert(high | i)) << (high | i);
  }
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

TEST(Serialize, RoundTripScalars) {
  BinaryWriter w;
  w.write<std::uint64_t>(42);
  w.write<double>(3.25);
  w.write<int>(-7);
  w.write<bool>(true);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read<std::uint64_t>(), 42u);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<int>(), -7);
  EXPECT_TRUE(r.read<bool>());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripStringsAndBytes) {
  BinaryWriter w;
  w.write_string("hello elastic world");
  std::vector<std::uint8_t> data{1, 2, 3, 255};
  w.write_bytes(data);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_string(), "hello elastic world");
  EXPECT_EQ(r.read_bytes(), data);
}

TEST(Serialize, ReaderThrowsOnUnderflow) {
  BinaryWriter w;
  w.write<std::uint32_t>(1);
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.read<std::uint64_t>(), InvalidArgument);
}

TEST(Serialize, EmptyString) {
  BinaryWriter w;
  w.write_string("");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_string(), "");
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, MeanAndStddev) {
  Stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Percentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Stats, EmptyBehaviour) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_THROW(s.min(), InvalidArgument);
  EXPECT_THROW(s.percentile(50), InvalidArgument);
}

TEST(Stats, SingleValue) {
  Stats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(75), 3.0);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22.5);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name  | value  |"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.500"), std::string::npos);
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkIndependence) {
  Rng a(123);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  EXPECT_NE(a.uniform(), child.uniform());
}

TEST(Rng, TruncatedNormalStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.truncated_normal(10.0, 5.0, 8.0, 12.0);
    EXPECT_GE(v, 8.0);
    EXPECT_LE(v, 12.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
  }
}

}  // namespace
}  // namespace elan
