#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/bitstream.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fsdl {
namespace {

TEST(BitStream, FixedWidthRoundTrip) {
  BitWriter w;
  w.write_bits(0b101, 3);
  w.write_bits(0, 1);
  w.write_bits(0xdeadbeefULL, 32);
  w.write_bits(~std::uint64_t{0}, 64);
  EXPECT_EQ(w.bit_size(), 3u + 1 + 32 + 64);

  BitReader r(w);
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(1), 0u);
  EXPECT_EQ(r.read_bits(32), 0xdeadbeefULL);
  EXPECT_EQ(r.read_bits(64), ~std::uint64_t{0});
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, ZeroWidthWritesNothing) {
  BitWriter w;
  w.write_bits(123, 0);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitStream, MasksValueToWidth) {
  BitWriter w;
  w.write_bits(0xff, 4);  // only the low 4 bits should land
  BitReader r(w);
  EXPECT_EQ(r.read_bits(4), 0xfu);
}

TEST(BitStream, GammaRoundTripSmallValues) {
  BitWriter w;
  for (std::uint64_t v = 1; v <= 300; ++v) w.write_gamma(v);
  BitReader r(w);
  for (std::uint64_t v = 1; v <= 300; ++v) EXPECT_EQ(r.read_gamma(), v);
}

TEST(BitStream, GammaRejectsZero) {
  BitWriter w;
  EXPECT_THROW(w.write_gamma(0), std::invalid_argument);
}

TEST(BitStream, Gamma0HandlesZero) {
  BitWriter w;
  w.write_gamma0(0);
  w.write_gamma0(41);
  BitReader r(w);
  EXPECT_EQ(r.read_gamma0(), 0u);
  EXPECT_EQ(r.read_gamma0(), 41u);
}

TEST(BitStream, RandomizedMixedRoundTrip) {
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, unsigned>> fixed;
    std::vector<std::uint64_t> gammas;
    for (int k = 0; k < 200; ++k) {
      if (rng.chance(0.5)) {
        const unsigned width = 1 + static_cast<unsigned>(rng.below(64));
        const std::uint64_t value =
            rng.next() & (width == 64 ? ~0ULL : (1ULL << width) - 1);
        fixed.emplace_back(value, width);
        gammas.push_back(0);  // placeholder for ordering
        w.write_bits(value, width);
      } else {
        const std::uint64_t value = 1 + rng.below(1 << 20);
        fixed.emplace_back(0, 0);
        gammas.push_back(value);
        w.write_gamma(value);
      }
    }
    BitReader r(w);
    for (std::size_t k = 0; k < fixed.size(); ++k) {
      if (fixed[k].second > 0) {
        EXPECT_EQ(r.read_bits(fixed[k].second), fixed[k].first);
      } else {
        EXPECT_EQ(r.read_gamma(), gammas[k]);
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(BitStream, ReaderThrowsPastEnd) {
  BitWriter w;
  w.write_bits(1, 1);
  BitReader r(w);
  r.read_bits(1);
  EXPECT_THROW(r.read_bits(1), std::out_of_range);
}

// Bit-at-a-time gamma reader over the raw words: the reference the inline
// word-level BitReader::read_gamma must agree with, value, position and
// error alike.
class ReferenceGammaReader {
 public:
  explicit ReferenceGammaReader(const BitWriter& w) : w_(w) {}

  std::uint64_t read_bit() {
    if (pos_ >= w_.bit_size()) throw std::out_of_range("reference: past end");
    const std::uint64_t bit = (w_.words()[pos_ / 64] >> (pos_ % 64)) & 1;
    ++pos_;
    return bit;
  }

  std::uint64_t read_gamma() {
    unsigned zeros = 0;
    while (read_bit() == 0) {
      if (++zeros > 64) throw std::runtime_error("reference: corrupt");
    }
    // A past-end cut inside the low bits must not advance (read_bits does
    // not), so check the whole field before consuming it.
    if (pos_ + zeros > w_.bit_size()) {
      throw std::out_of_range("reference: past end");
    }
    std::uint64_t low = 0;
    for (unsigned k = 0; k < zeros; ++k) low |= read_bit() << k;
    if (zeros == 64) throw std::runtime_error("reference: corrupt");
    return (std::uint64_t{1} << zeros) | low;
  }

  std::size_t position() const { return pos_; }

 private:
  const BitWriter& w_;
  std::size_t pos_ = 0;
};

enum class Outcome { kValue, kOutOfRange, kCorrupt };

template <class Reader>
Outcome read_one(Reader& r, std::uint64_t& value) {
  try {
    value = r.read_gamma();
    return Outcome::kValue;
  } catch (const std::out_of_range&) {
    return Outcome::kOutOfRange;
  } catch (const std::runtime_error&) {
    return Outcome::kCorrupt;
  }
}

// Append `count` bits of `rng` noise (any count, not just <= 64).
void write_noise(BitWriter& w, std::size_t count, Rng& rng) {
  while (count > 0) {
    const unsigned width = static_cast<unsigned>(std::min<std::size_t>(64, count));
    w.write_bits(rng.next(), width);
    count -= width;
  }
}

// A value whose gamma code is 2·len-1 bits long (len in [1, 64]).
std::uint64_t value_of_length(unsigned len, Rng& rng) {
  const std::uint64_t top = std::uint64_t{1} << (len - 1);
  return top | (rng.next() & (top - 1));
}

// Read `w` to its end (or first error) with both readers from `start`,
// requiring the same value, position and error at every step.
void expect_readers_agree(const BitWriter& w, std::size_t start) {
  BitReader fast(w);
  ReferenceGammaReader ref(w);
  for (std::size_t k = 0; k < start; ++k) {
    fast.read_bits(1);
    ref.read_bit();
  }
  for (;;) {
    std::uint64_t a = 0, b = 0;
    const Outcome fa = read_one(fast, a);
    const Outcome fb = read_one(ref, b);
    ASSERT_EQ(static_cast<int>(fa), static_cast<int>(fb))
        << "start=" << start << " pos=" << ref.position();
    ASSERT_EQ(fast.position(), ref.position()) << "start=" << start;
    if (fa != Outcome::kValue) return;
    ASSERT_EQ(a, b) << "start=" << start << " pos=" << ref.position();
  }
}

TEST(BitStream, GammaEveryLengthAtEveryStartOffset) {
  Rng rng(2024);
  for (std::size_t offset = 0; offset < 128; ++offset) {
    BitWriter w;
    write_noise(w, offset, rng);
    std::vector<std::uint64_t> values;
    for (unsigned len = 1; len <= 64; ++len) {
      values.push_back(value_of_length(len, rng));
      w.write_gamma(values.back());
    }
    for (unsigned len = 64; len >= 1; --len) {  // long codes first, too
      values.push_back(value_of_length(len, rng));
      w.write_gamma(values.back());
    }
    BitReader r(w);
    for (std::size_t k = 0; k < offset; ++k) r.read_bits(1);
    for (const std::uint64_t v : values) {
      ASSERT_EQ(r.read_gamma(), v) << "offset=" << offset;
    }
    EXPECT_TRUE(r.exhausted());
    expect_readers_agree(w, offset);
  }
}

TEST(BitStream, GammaMatchesReferenceOnArbitraryBits) {
  // Sparse ones give every zero-run length, including runs past 64 and
  // streams that end mid-code, so the fallback and its errors are reached.
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint64_t> words(6);
    const double density = iter % 4 == 0 ? 0.005 : 0.08;
    for (auto& word : words) {
      for (unsigned b = 0; b < 64; ++b) {
        if (rng.chance(density)) word |= std::uint64_t{1} << b;
      }
    }
    const std::size_t bits = 64 * 5 + rng.below(65);
    const BitWriter w = BitWriter::from_words(words, bits);
    for (std::size_t start = 0; start < 128; ++start) {
      expect_readers_agree(w, start);
    }
  }
}

TEST(BitStream, GammaCutAnywhereThrowsOutOfRange) {
  Rng rng(31);
  for (unsigned len = 1; len <= 64; ++len) {
    for (const std::size_t offset : {0u, 1u, 17u, 63u, 64u, 100u}) {
      BitWriter full;
      write_noise(full, offset, rng);
      const std::uint64_t value = value_of_length(len, rng);
      full.write_gamma(value);
      write_noise(full, 70, rng);  // bits the cut must hide
      const std::size_t code = 2 * len - 1;
      // Cut inside the zero run, right before the stop bit, and inside the
      // low bits: every cut short of the whole code.
      for (std::size_t keep = 0; keep < code; ++keep) {
        const BitWriter cut =
            BitWriter::from_words(full.words(), offset + keep);
        BitReader r(cut);
        for (std::size_t k = 0; k < offset; ++k) r.read_bits(1);
        EXPECT_THROW(r.read_gamma(), std::out_of_range)
            << "len=" << len << " offset=" << offset << " keep=" << keep;
      }
      const BitWriter whole = BitWriter::from_words(full.words(), offset + code);
      BitReader r(whole);
      for (std::size_t k = 0; k < offset; ++k) r.read_bits(1);
      EXPECT_EQ(r.read_gamma(), value) << "len=" << len;
      EXPECT_TRUE(r.exhausted());
    }
  }
}

TEST(BitStream, GammaZeroRunPast64IsCorrupt) {
  for (const std::size_t offset : {0u, 5u, 64u}) {
    BitWriter w;
    w.write_bits(0, static_cast<unsigned>(offset));
    w.write_bits(0, 64);
    w.write_bits(0, 1);  // 65 zeros
    w.write_bits(~std::uint64_t{0}, 64);
    BitReader r(w);
    r.read_bits(static_cast<unsigned>(offset));
    EXPECT_THROW(r.read_gamma(), std::runtime_error) << "offset=" << offset;
  }
  // Exactly 64 zeros, a stop bit and 64 low bits: no 64-bit value has it.
  BitWriter w;
  w.write_bits(0, 64);
  w.write_bits(1, 1);
  w.write_bits(~std::uint64_t{0}, 64);
  BitReader r(w);
  EXPECT_THROW(r.read_gamma(), std::runtime_error);
}

TEST(BitStream, OneCallGammaWriteMatchesThreeCallEncoding) {
  Rng rng(5);
  for (unsigned len = 1; len <= 64; ++len) {
    for (std::size_t offset = 0; offset < 64; offset += 7) {
      const std::uint64_t top = std::uint64_t{1} << (len - 1);
      for (const std::uint64_t value :
           {top, top | (top - 1), value_of_length(len, rng)}) {
        BitWriter fast, slow;
        write_noise(fast, offset, rng);
        slow = BitWriter::from_words(fast.words(), fast.bit_size());
        fast.write_gamma(value);
        slow.write_bits(0, len - 1);
        slow.write_bits(1, 1);
        slow.write_bits(value, len - 1);
        ASSERT_EQ(fast.bit_size(), slow.bit_size()) << "len=" << len;
        ASSERT_EQ(fast.words(), slow.words())
            << "len=" << len << " value=" << value;
      }
    }
  }
}

TEST(BitsFor, KnownValues) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(256), 8u);
  EXPECT_EQ(bits_for(257), 9u);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SampleDistinctProducesDistinctInRange) {
  Rng rng(3);
  const auto sample = rng.sample_distinct(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::vector<bool> seen(100, false);
  for (Vertex v : sample) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Summary, OrderStatistics) {
  Summary s;
  for (int v : {5, 1, 9, 3, 7}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
  EXPECT_DOUBLE_EQ(s.percentile(20), 1.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Summary, AddAfterQueryStillCorrect) {
  Summary s;
  s.add(2);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
  s.add(10);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(Histogram, ExactMomentsEstimatedPercentiles) {
  Histogram h(1.25);
  Summary exact;
  Rng rng(7);
  for (int k = 0; k < 5000; ++k) {
    const double x = 1.0 + 999.0 * rng.uniform();
    h.add(x);
    exact.add(x);
  }
  EXPECT_EQ(h.count(), 5000u);
  EXPECT_DOUBLE_EQ(h.min(), exact.min());
  EXPECT_DOUBLE_EQ(h.max(), exact.max());
  // Mean accumulates in stream order, Summary in sorted order: equal up to
  // floating-point associativity.
  EXPECT_NEAR(h.mean(), exact.mean(), 1e-9 * exact.mean());
  // Percentile estimates land within one bucket width (factor `growth`).
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double est = h.percentile(p);
    const double ref = exact.percentile(p);
    EXPECT_GE(est, ref / 1.25) << "p=" << p;
    EXPECT_LE(est, ref * 1.25 * 1.05) << "p=" << p;
  }
}

TEST(Histogram, PercentileClampedToObservedRange) {
  Histogram h;
  h.add(3.0);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 5.0);
  EXPECT_GE(h.median(), 3.0);
  EXPECT_LE(h.median(), 5.0);
}

TEST(Histogram, HandlesZeroAndNegativeSamples) {
  Histogram h;
  h.add(0.0);
  h.add(-2.5);
  h.add(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -2.5);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5);
  // Rank-1 and rank-2 samples sit in the underflow bucket -> exact min.
  EXPECT_DOUBLE_EQ(h.percentile(50), -2.5);
}

TEST(Histogram, MergeMatchesCombinedStream) {
  Histogram a(1.25), b(1.25), combined(1.25);
  Rng rng(11);
  for (int k = 0; k < 1000; ++k) {
    const double x = std::pow(10.0, 4.0 * rng.uniform());
    (k % 2 == 0 ? a : b).add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  for (double p : {25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), combined.percentile(p)) << "p=" << p;
  }
}

TEST(Histogram, MergeShiftedDistributions) {
  // Disjoint value ranges (three decades apart) force the merge to splice
  // bucket arrays with different offsets, not just add aligned slots.
  Histogram low(1.25), high(1.25), combined(1.25);
  Rng rng(13);
  for (int k = 0; k < 500; ++k) {
    const double a = 1.0 + 9.0 * rng.uniform();       // [1, 10)
    const double b = 1e4 * (1.0 + 9.0 * rng.uniform());  // [1e4, 1e5)
    low.add(a);
    high.add(b);
    combined.add(a);
    combined.add(b);
  }
  low.merge(high);
  EXPECT_EQ(low.count(), combined.count());
  EXPECT_DOUBLE_EQ(low.min(), combined.min());
  EXPECT_DOUBLE_EQ(low.max(), combined.max());
  // Summation order differs between the two accumulations.
  EXPECT_NEAR(low.sum(), combined.sum(), 1e-9 * combined.sum());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(low.percentile(p), combined.percentile(p)) << "p=" << p;
  }
  // p25 sits in the low cloud, p75 in the high cloud.
  EXPECT_LT(low.percentile(25), 11.0);
  EXPECT_GT(low.percentile(75), 9999.0);
}

TEST(Histogram, MergeEmptyEitherDirection) {
  Histogram filled(1.25), empty(1.25);
  for (double x : {1.0, 5.0, 80.0}) filled.add(x);

  Histogram a = filled;
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), filled.sum());
  EXPECT_DOUBLE_EQ(a.percentile(50), filled.percentile(50));

  Histogram b(1.25);
  b.merge(filled);  // adopt everything
  EXPECT_EQ(b.count(), 3u);
  EXPECT_DOUBLE_EQ(b.min(), 1.0);
  EXPECT_DOUBLE_EQ(b.max(), 80.0);

  Histogram c(1.25);
  c.merge(empty);
  EXPECT_TRUE(c.empty());
}

TEST(Histogram, QuantileWithinDocumentedRelativeError) {
  // The class documents percentile error of one bucket width: the estimate
  // may be off from the exact order statistic by at most a factor of
  // `growth`. Check p50 and p99 against an exact Summary on the same
  // stream, for a coarse and a fine histogram.
  for (double growth : {1.5, 1.05}) {
    Histogram h(growth);
    Summary exact;
    Rng rng(17);
    for (int k = 0; k < 20000; ++k) {
      const double x = std::pow(10.0, 3.0 * rng.uniform());
      h.add(x);
      exact.add(x);
    }
    for (double p : {50.0, 99.0}) {
      const double est = h.percentile(p);
      const double ref = exact.percentile(p);
      EXPECT_LE(est, ref * growth * (1 + 1e-12))
          << "p=" << p << " growth=" << growth;
      EXPECT_GE(est, ref / growth * (1 - 1e-12))
          << "p=" << p << " growth=" << growth;
    }
  }
}

TEST(Histogram, BucketsSumToCountWithIncreasingUppers) {
  Histogram h(1.25);
  Rng rng(19);
  h.add(-3.0);  // underflow bucket
  h.add(0.0);
  for (int k = 0; k < 1000; ++k) {
    h.add(std::pow(10.0, 4.0 * rng.uniform()));
  }
  const auto buckets = h.buckets();
  ASSERT_FALSE(buckets.empty());
  EXPECT_DOUBLE_EQ(buckets.front().upper, 0.0);  // x <= 0 leads
  EXPECT_EQ(buckets.front().count, 2u);
  std::uint64_t total = 0;
  double prev_upper = -1.0;
  for (const auto& b : buckets) {
    EXPECT_GT(b.count, 0u) << "empty buckets must be skipped";
    EXPECT_GT(b.upper, prev_upper) << "uppers must increase";
    prev_upper = b.upper;
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
  // Every sample is <= the top bucket's upper edge.
  EXPECT_GE(buckets.back().upper, h.max());

  EXPECT_TRUE(Histogram(1.25).buckets().empty());
}

TEST(Histogram, MergeRejectsMismatchedScales) {
  Histogram a(1.25), b(2.0);
  b.add(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, AddNMatchesRepeatedAdd) {
  // add_n(x, n) is how FLEET_STATS reconstructs a shard's histogram from
  // its Prometheus buckets; it must be indistinguishable from n plain adds.
  Histogram bulk(1.25), loop(1.25);
  const struct { double x; std::uint64_t n; } samples[] = {
      {0.5, 3}, {12.0, 7}, {9000.0, 1}, {-1.0, 2}};
  for (const auto& s : samples) {
    bulk.add_n(s.x, s.n);
    for (std::uint64_t k = 0; k < s.n; ++k) loop.add(s.x);
  }
  EXPECT_EQ(bulk.count(), loop.count());
  EXPECT_DOUBLE_EQ(bulk.min(), loop.min());
  EXPECT_DOUBLE_EQ(bulk.max(), loop.max());
  EXPECT_DOUBLE_EQ(bulk.sum(), loop.sum());
  for (double p : {10.0, 50.0, 90.0}) {
    EXPECT_DOUBLE_EQ(bulk.percentile(p), loop.percentile(p)) << "p=" << p;
  }

  Histogram h(1.25);
  h.add_n(4.0, 0);  // zero-count add is a no-op
  EXPECT_TRUE(h.empty());
}

TEST(Histogram, EmptyThrowsAndResetClears) {
  Histogram h;
  EXPECT_THROW(h.min(), std::logic_error);
  EXPECT_THROW(h.percentile(50), std::logic_error);
  h.add(1.0);
  EXPECT_FALSE(h.empty());
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_THROW(h.mean(), std::logic_error);
}

TEST(Jsonl, WriterEmitsStableFlatObject) {
  JsonlWriter w;
  w.field("svc", "router")
      .field_u64("pid", 4242)
      .field_hex64("span", 0xdeadbeefULL)
      .field_hex128("trace", 0x0123456789abcdefULL, 0xfedcba9876543210ULL)
      .field_double("dur_us", 12.5);
  EXPECT_EQ(w.line(),
            "{\"svc\":\"router\",\"pid\":4242,"
            "\"span\":\"00000000deadbeef\","
            "\"trace\":\"0123456789abcdeffedcba9876543210\","
            "\"dur_us\":12.5}");
}

TEST(Jsonl, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
}

TEST(Jsonl, WriterParserRoundTripWithEscapes) {
  JsonlWriter w;
  w.field("name", "weird \"quoted\"\tvalue\\path").field_u64("n", 7);
  JsonlRecord rec;
  std::string error;
  ASSERT_TRUE(parse_jsonl(w.line(), rec, error)) << error;
  EXPECT_EQ(rec.get("name"), "weird \"quoted\"\tvalue\\path");
  EXPECT_EQ(rec.get("n"), "7");
  EXPECT_TRUE(rec.has("name"));
  EXPECT_FALSE(rec.has("absent"));
  EXPECT_EQ(rec.get("absent", "dflt"), "dflt");
}

TEST(Jsonl, ParserRejectsMalformedLines) {
  JsonlRecord rec;
  std::string error;
  EXPECT_FALSE(parse_jsonl("", rec, error));
  EXPECT_FALSE(parse_jsonl("not json", rec, error));
  EXPECT_FALSE(parse_jsonl("{\"a\":1", rec, error));  // truncated
  EXPECT_FALSE(parse_jsonl("{\"a\":{\"nested\":1}}", rec, error));
  EXPECT_FALSE(parse_jsonl("{\"a\":[1,2]}", rec, error));
  EXPECT_FALSE(parse_jsonl("{\"a\":1}trailing", rec, error));
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(42LL);
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell(1LL).cell(2LL);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

namespace {
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}
}  // namespace

TEST(AtomicFile, WritesAndReplaces) {
  const std::string path = ::testing::TempDir() + "atomic_file_basic.txt";
  ASSERT_TRUE(atomic_write_file(path, "first"));
  EXPECT_EQ(slurp(path), "first");
  // Replacement is atomic: the new content fully supersedes the old.
  ASSERT_TRUE(atomic_write_file(path, "second, longer content"));
  EXPECT_EQ(slurp(path), "second, longer content");
  std::remove(path.c_str());
}

TEST(AtomicFile, FailedWriteLeavesTargetUntouched) {
  const std::string path =
      ::testing::TempDir() + "no_such_dir_zz/atomic_file.txt";
  std::string error;
  EXPECT_FALSE(atomic_write_file(path, "doomed", &error));
  EXPECT_NE(error, "");
  EXPECT_EQ(slurp(path), "");  // target never appeared
}

TEST(AtomicFile, LeftoverTmpFromACrashDoesNotShadowTheTarget) {
  // Simulate a crash mid-save from a previous process: a stale .tmp with
  // garbage sits next to the target. A fresh atomic write must succeed
  // and the garbage must not survive as the visible file.
  const std::string path = ::testing::TempDir() + "atomic_file_crash.txt";
  ASSERT_TRUE(atomic_write_file(path, "good old content"));
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "torn half-written garb";
  }
  EXPECT_EQ(slurp(path), "good old content") << "tmp must not be visible";
  ASSERT_TRUE(atomic_write_file(path, "good new content"));
  EXPECT_EQ(slurp(path), "good new content");
  // Each writer uses its own mkstemp name, so the stale tmp was neither
  // reused nor renamed into place — two concurrent writers can never
  // publish each other's half-written bytes through a shared tmp inode.
  EXPECT_EQ(slurp(path + ".tmp"), "torn half-written garb");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace fsdl
