// Unit tests: byte codecs (varint, integers), the block-chained send
// buffer and the shared zero region, RNG determinism and distributions,
// simulated-time helpers, and the LL_CHECK/LL_DCHECK/LL_INVARIANT
// protocol-invariant framework.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stream_buffer.h"
#include "util/time.h"

namespace longlook {
namespace {

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.empty());
}

TEST(Bytes, ReaderReportsTruncation) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.view());
  EXPECT_FALSE(r.u32().has_value());  // only 2 bytes available
  EXPECT_EQ(r.u16(), 7);              // unconsumed by the failed read
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Bytes, SkipAndRest) {
  ByteWriter w;
  w.str("hello");
  ByteReader r(w.view());
  EXPECT_TRUE(r.skip(2));
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_FALSE(r.skip(4));
  EXPECT_EQ(r.rest().size(), 3u);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  const std::uint64_t v = GetParam();
  ByteWriter w;
  w.varint(v);
  EXPECT_EQ(w.size(), varint_length(v));
  ByteReader r(w.view());
  EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 62ULL, 63ULL, 64ULL, 16382ULL, 16383ULL,
                      16384ULL, (1ULL << 30) - 1, 1ULL << 30,
                      (1ULL << 40) + 12345, kVarintMax));

TEST(Varint, ClampsAboveMax) {
  ByteWriter w;
  w.varint(kVarintMax + 5);
  ByteReader r(w.view());
  EXPECT_EQ(r.varint(), kVarintMax);
}

TEST(Varint, LengthClasses) {
  EXPECT_EQ(varint_length(0), 1u);
  EXPECT_EQ(varint_length(63), 1u);
  EXPECT_EQ(varint_length(64), 2u);
  EXPECT_EQ(varint_length(16383), 2u);
  EXPECT_EQ(varint_length(16384), 4u);
  EXPECT_EQ(varint_length(1 << 30), 8u);
}

// Stream bytes are patterned, never zero: synthetic bodies are all zero, so
// a block-addressing bug would not show in any digest. 251 is prime, so a
// byte differs from the one a block (or any power of two) away.
std::uint8_t stream_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>(offset % 251);
}

Bytes stream_bytes(std::uint64_t offset, std::size_t len) {
  Bytes out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = stream_byte(offset + i);
  return out;
}

constexpr std::size_t kBlock = util::StreamBuffer::kBlockBytes;

TEST(StreamBuffer, AppendsOfEverySizeReadBackExactly) {
  util::StreamBuffer buf;
  std::uint64_t end = 0;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{64 * 1024 - 1},
        std::size_t{64 * 1024}, kBlock - 1, kBlock, std::size_t{0},
        std::size_t{1024 * 1024 + 7}}) {
    buf.append(stream_bytes(end, n));
    end += n;
    EXPECT_EQ(buf.end_offset(), end) << "after appending " << n;
    EXPECT_EQ(buf.size(), end);
  }
  EXPECT_EQ(buf.begin_offset(), 0u);
  EXPECT_EQ(buf.copy_out(0, static_cast<std::size_t>(end)),
            stream_bytes(0, static_cast<std::size_t>(end)));
}

TEST(StreamBuffer, CopyOutSpansBlockBoundaries) {
  util::StreamBuffer buf;
  buf.append(stream_bytes(0, 3 * kBlock + 100));
  EXPECT_EQ(buf.copy_out(kBlock - 3, 10), stream_bytes(kBlock - 3, 10));
  EXPECT_EQ(buf.copy_out(kBlock - 1, 2 * kBlock + 2),
            stream_bytes(kBlock - 1, 2 * kBlock + 2));
  EXPECT_EQ(buf.copy_out(kBlock, kBlock), stream_bytes(kBlock, kBlock));
  EXPECT_EQ(buf.copy_out(3 * kBlock, 100), stream_bytes(3 * kBlock, 100));
  EXPECT_TRUE(buf.copy_out(2 * kBlock, 0).empty());
}

TEST(StreamBuffer, ReleaseFreesOnlyWholeBlocksBelowTheOffset) {
  util::StreamBuffer buf;
  const std::size_t total = 3 * kBlock + 100;
  buf.append(stream_bytes(0, total));
  buf.release_before(0);
  EXPECT_EQ(buf.begin_offset(), 0u);
  buf.release_before(kBlock - 1);  // inside block 0
  EXPECT_EQ(buf.begin_offset(), 0u);
  buf.release_before(kBlock);  // at the end of block 0
  EXPECT_EQ(buf.begin_offset(), kBlock);
  EXPECT_EQ(buf.size(), total - kBlock);
  buf.release_before(kBlock + 5);  // inside block 1: kept
  EXPECT_EQ(buf.begin_offset(), kBlock);
  EXPECT_EQ(buf.copy_out(kBlock, 10), stream_bytes(kBlock, 10));
  buf.release_before(total + 1000);  // beyond: the partial last block stays
  EXPECT_EQ(buf.begin_offset(), 3 * kBlock);
  EXPECT_EQ(buf.end_offset(), total);
  EXPECT_EQ(buf.copy_out(3 * kBlock, 100), stream_bytes(3 * kBlock, 100));
  // Appends continue at the end, across the next block boundary.
  buf.append(stream_bytes(total, kBlock));
  EXPECT_EQ(buf.copy_out(total - 50, kBlock + 50),
            stream_bytes(total - 50, kBlock + 50));
}

TEST(StreamBuffer, ReleasingEveryFullBlockEmptiesTheBuffer) {
  util::StreamBuffer buf;
  buf.append(stream_bytes(0, 2 * kBlock));
  buf.release_before(2 * kBlock);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.begin_offset(), 2 * kBlock);
  EXPECT_EQ(buf.end_offset(), 2 * kBlock);
  buf.append(stream_bytes(2 * kBlock, 7));
  EXPECT_EQ(buf.copy_out(2 * kBlock, 7), stream_bytes(2 * kBlock, 7));
}

TEST(ZeroBytes, ViewsOneSharedZeroRegion) {
  const BytesView small = util::zero_bytes(3);
  const BytesView whole = util::zero_bytes(util::kZeroBytesMax);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_EQ(whole.size(), util::kZeroBytesMax);
  EXPECT_EQ(small.data(), whole.data());
  EXPECT_TRUE(util::zero_bytes(0).empty());
  for (const std::uint8_t b : whole) ASSERT_EQ(b, 0);
}

using ZeroBytesDeathTest = ::testing::Test;

TEST(ZeroBytesDeathTest, RequestBeyondTheRegionAborts) {
  EXPECT_DEATH(util::zero_bytes(util::kZeroBytesMax + 1),
               "CHECK failed.*exceeds the 1048576-byte zero region");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.01)) ++hits;
  }
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.01, 0.002);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, UniformIntUnbiasedSmallRange) {
  Rng rng(13);
  int counts[5] = {0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, JitteredClampsAtZero) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.jittered(milliseconds(1), milliseconds(10)), kNoDuration);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

TEST(Time, Conversions) {
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(microseconds(2500)), 2.5);
}

TEST(Time, TransmissionDelay) {
  // 1250 bytes at 10 Mbps = 1 ms.
  EXPECT_EQ(transmission_delay(1250, 10'000'000), milliseconds(1));
  // 1500 bytes at 1 Gbps = 12 us.
  EXPECT_EQ(transmission_delay(1500, 1'000'000'000), microseconds(12));
}

// --- LL_CHECK / LL_DCHECK / LL_INVARIANT ---

CheckFailure g_last_failure;
int g_handler_calls = 0;

void recording_handler(const CheckFailure& f) {
  g_last_failure = f;
  ++g_handler_calls;
}

TEST(Check, PassingCheckDoesNotInvokeHandler) {
  ScopedCheckFailHandler scoped(&recording_handler);
  const int calls_before = g_handler_calls;
  const std::uint64_t count_before = check_failure_count();
  LL_CHECK(1 + 1 == 2) << "never formatted";
  LL_INVARIANT(true);
  EXPECT_EQ(g_handler_calls, calls_before);
  EXPECT_EQ(check_failure_count(), count_before);
}

TEST(Check, FailureCarriesLocationConditionAndMessage) {
  ScopedCheckFailHandler scoped(&recording_handler);
  const int calls_before = g_handler_calls;
  const int value = 42;
  LL_CHECK(value == 0) << "value=" << value << " hex=" << std::hex << value;
  const int expected_line = __LINE__ - 1;
  ASSERT_EQ(g_handler_calls, calls_before + 1);
  EXPECT_NE(std::string(g_last_failure.file).find("test_util.cc"),
            std::string::npos);
  EXPECT_EQ(g_last_failure.line, expected_line);
  EXPECT_STREQ(g_last_failure.condition, "value == 0");
  EXPECT_STREQ(g_last_failure.kind, "CHECK");
  EXPECT_EQ(g_last_failure.message, "value=42 hex=2a");
  EXPECT_NE(std::string(g_last_failure.function).find("TestBody"),
            std::string::npos);
}

TEST(Check, InvariantIsTaggedAsInvariant) {
  ScopedCheckFailHandler scoped(&recording_handler);
  LL_INVARIANT(false) << "protocol property violated";
  EXPECT_STREQ(g_last_failure.kind, "INVARIANT");
  EXPECT_EQ(g_last_failure.message, "protocol property violated");
}

TEST(Check, MessageIsOptional) {
  ScopedCheckFailHandler scoped(&recording_handler);
  LL_CHECK(false);
  EXPECT_EQ(g_last_failure.message, "");
  EXPECT_STREQ(g_last_failure.condition, "false");
}

TEST(Check, ToStringFormatsAllFields) {
  ScopedCheckFailHandler scoped(&recording_handler);
  LL_INVARIANT(2 < 1) << "ordering broke";
  const std::string s = g_last_failure.to_string();
  EXPECT_NE(s.find("test_util.cc"), std::string::npos);
  EXPECT_NE(s.find("INVARIANT failed"), std::string::npos);
  EXPECT_NE(s.find("(2 < 1)"), std::string::npos);
  EXPECT_NE(s.find("ordering broke"), std::string::npos);
}

TEST(Check, FailureCountAccumulatesAcrossHandlers) {
  ScopedCheckFailHandler scoped(&recording_handler);
  const std::uint64_t before = check_failure_count();
  LL_CHECK(false) << "one";
  LL_INVARIANT(false) << "two";
  EXPECT_EQ(check_failure_count(), before + 2);
}

TEST(Check, SetHandlerReturnsPreviousAndScopedRestores) {
  CheckFailHandler original = set_check_fail_handler(&recording_handler);
  {
    ScopedCheckFailHandler scoped(original);
    // Inside the scope the original handler is active again; swapping in
    // the recorder must hand back the original.
    CheckFailHandler prev = set_check_fail_handler(&recording_handler);
    EXPECT_EQ(prev, original);
  }
  // Scope exit restored the recorder; putting the original back returns it.
  CheckFailHandler prev = set_check_fail_handler(original);
  EXPECT_EQ(prev, &recording_handler);
}

TEST(Check, ExecutionContinuesWhenHandlerReturns) {
  ScopedCheckFailHandler scoped(&recording_handler);
  bool reached = false;
  LL_CHECK(false) << "non-fatal under a returning handler";
  reached = true;
  EXPECT_TRUE(reached);
}

#if defined(NDEBUG) && !defined(LL_FORCE_DCHECKS)
TEST(Check, DisabledDcheckDoesNotEvaluateCondition) {
  ScopedCheckFailHandler scoped(&recording_handler);
  const int calls_before = g_handler_calls;
  int evaluations = 0;
  LL_DCHECK(++evaluations > 0) << "side effect";
  LL_DCHECK(false) << "never reported";
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(g_handler_calls, calls_before);
}
#else
TEST(Check, EnabledDcheckReportsAsDcheck) {
  ScopedCheckFailHandler scoped(&recording_handler);
  int evaluations = 0;
  LL_DCHECK(++evaluations > 0) << "passes";
  LL_DCHECK(false) << "fires";
  EXPECT_EQ(evaluations, 1);
  EXPECT_STREQ(g_last_failure.kind, "DCHECK");
  EXPECT_EQ(g_last_failure.message, "fires");
}
#endif

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, DefaultHandlerAborts) {
  EXPECT_DEATH(LL_CHECK(1 == 2) << "fatal by default",
               "CHECK failed.*\\(1 == 2\\).*fatal by default");
}

TEST(CheckDeathTest, InvariantAbortsWithLocation) {
  EXPECT_DEATH(LL_INVARIANT(false) << "state machine broke",
               "test_util.cc.*INVARIANT failed.*state machine broke");
}

}  // namespace
}  // namespace longlook
