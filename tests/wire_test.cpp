// sim/wire.h number codec: only canonical tokens decode (no sign, no
// leading whitespace or zeros, no 0x, no uppercase hex, no overflow), the
// same rule holds inside MetricsRegistry images, and decoding a writer
// image allocates nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <string_view>

#include "sim/metrics.h"
#include "sim/wire.h"

// ------------------------------------------------- allocation counting ----
// Global operator new replacement for this test binary: lets the decode
// test assert that reading numbers never touches the heap.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace iobt::sim {
namespace {

/// Decodes one u64 token; the reader must reject it and latch.
void expect_u64_rejected(std::string_view in) {
  WireReader r(in);
  EXPECT_EQ(r.u64(), 0u) << '"' << in << '"';
  EXPECT_FALSE(r.ok()) << '"' << in << '"';
}

void expect_f64_rejected(std::string_view in) {
  WireReader r(in);
  EXPECT_EQ(r.f64(), 0.0) << '"' << in << '"';
  EXPECT_FALSE(r.ok()) << '"' << in << '"';
}

TEST(WireCodec, U64RejectsOverflowInsteadOfSaturating) {
  expect_u64_rejected("18446744073709551616 ");  // UINT64_MAX + 1
  expect_u64_rejected("99999999999999999999999 ");
  WireReader r("18446744073709551615 ");
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(r.ok());
}

TEST(WireCodec, U64RejectsSignsWhitespaceAndNonCanonicalSpellings) {
  expect_u64_rejected("-1 ");
  expect_u64_rejected("+7 ");
  expect_u64_rejected("\n7 ");
  expect_u64_rejected("\t7 ");
  expect_u64_rejected("07 ");   // the writer never pads
  expect_u64_rejected("0x7 ");
  expect_u64_rejected("7a ");
  WireReader zero("0 ");
  EXPECT_EQ(zero.u64(), 0u);
  EXPECT_TRUE(zero.ok());
}

TEST(WireCodec, F64RejectsSignedPrefixedAndUppercaseTokens) {
  // 16 chars, so the width check alone lets it through; parsed as a
  // signed number it would decode to a different double.
  expect_f64_rejected("-3ff000000000000 ");
  expect_f64_rejected("+3ff000000000000 ");
  expect_f64_rejected("0x3ff00000000000 ");
  expect_f64_rejected(" 3ff000000000000 ");
  expect_f64_rejected("3FF0000000000000 ");
  expect_f64_rejected("3ff000000000000 ");    // 15 digits
  expect_f64_rejected("3ff00000000000000 ");  // 17 digits
  WireReader r("3ff0000000000000 ");
  EXPECT_EQ(r.f64(), 1.0);
  EXPECT_TRUE(r.ok());
}

TEST(WireCodec, FormattersWriteTheCanonicalTokens) {
  WireWriter w;
  w.u64(0).u64(7).u64(std::numeric_limits<std::uint64_t>::max()).i64(-1);
  w.f64(1.0).f64(-0.0).f64(std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(w.out(),
            "0 7 18446744073709551615 18446744073709551615 "
            "3ff0000000000000 8000000000000000 0000000000000001 ");
}

TEST(WireCodec, MetricsImageRejectsSignedCounts) {
  EXPECT_TRUE(MetricsRegistry::deserialize("m1 0 0 0").has_value());
  // Any run of whitespace separates tokens.
  EXPECT_TRUE(MetricsRegistry::deserialize("m1\t0\n0  0").has_value());
  EXPECT_FALSE(MetricsRegistry::deserialize("m1 -0 0 0").has_value());
  EXPECT_FALSE(MetricsRegistry::deserialize("m1 +0 0 0").has_value());
  EXPECT_FALSE(MetricsRegistry::deserialize("m1 00 0 0").has_value());
  EXPECT_FALSE(
      MetricsRegistry::deserialize("m1 1 c -3ff000000000000 0 0").has_value());
  EXPECT_FALSE(
      MetricsRegistry::deserialize("m1 18446744073709551617 0 0").has_value());
}

TEST(WireCodec, DecodingAWriterImageAllocatesNothing) {
  WireWriter w;
  for (int i = 0; i < 4096; ++i) {
    w.f64(1.0 / (i + 1)).u64(static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
  }
  const std::string image = w.take();
  WireReader r(image);
  double sum = 0.0;
  std::uint64_t mix = 0;
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 4096; ++i) {
    sum += r.f64();
    mix ^= r.u64();
  }
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_GT(sum, 1.0);
  EXPECT_NE(mix, 0u);
}

}  // namespace
}  // namespace iobt::sim
