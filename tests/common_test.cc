// Unit tests for the common substrate: Status/Result, Rng, string
// utilities, UnitIndex, Stopwatch.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/unit_index.h"
#include "obs/timer.h"
#include "common/string_util.h"

namespace geoalign {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(Status, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).ValueOrDie();
  EXPECT_EQ(s, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GEOALIGN_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(Result, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2 = 3, odd -> error
  EXPECT_FALSE(bad.ok());
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  for (double lambda : {0.5, 4.0, 100.0}) {
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) acc += rng.Poisson(lambda);
    EXPECT_NEAR(acc / n, lambda, lambda * 0.05 + 0.05) << lambda;
  }
}

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // A forked child should not replay the parent's future outputs.
  uint64_t p = parent.NextU64();
  uint64_t c = child.NextU64();
  EXPECT_NE(p, c);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtil, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(std::move(ParseDouble("3.25")).ValueOrDie(), 3.25);
  EXPECT_DOUBLE_EQ(std::move(ParseDouble(" -1e3 ")).ValueOrDie(), -1000.0);
}

TEST(StringUtil, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("3.25x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringUtil, ParseInt64) {
  EXPECT_EQ(std::move(ParseInt64("-42")).ValueOrDie(), -42);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringUtil, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtil, StartsWithAndLower) {
  EXPECT_TRUE(StartsWith("POLYGON(...)", "POLYGON"));
  EXPECT_FALSE(StartsWith("POLY", "POLYGON"));
  EXPECT_EQ(AsciiToLower("MiXeD123"), "mixed123");
}

common::UnitIndex MakeUnitIndex(std::vector<std::string> names) {
  return std::move(common::UnitIndex::Create(std::move(names), "source"))
      .ValueOrDie();
}

// Copies `name` into a heap block of exactly its length and looks it up
// through a view of that block, so a word load that strays past the
// name's last byte is a heap overflow under ASan (a std::string's
// inline buffer would hide it).
size_t FindExact(const common::UnitIndex& index, const std::string& name) {
  std::unique_ptr<char[]> block(new char[name.size()]);
  std::copy(name.begin(), name.end(), block.get());
  return index.Find(std::string_view(block.get(), name.size()));
}

TEST(UnitIndex, UsZipNamesRoundTrip) {
  std::vector<std::string> names;
  for (size_t i = 0; i < 30831; ++i) names.push_back(StrFormat("z%05zu", i));
  const common::UnitIndex index = MakeUnitIndex(names);
  ASSERT_EQ(index.size(), names.size());
  EXPECT_EQ(index.names(), names);
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(index.Find(names[i]), i) << names[i];
  }
}

TEST(UnitIndex, SmallListsRoundTripAcrossTheTableEnd) {
  for (size_t n : {1, 8, 9, 16, 17}) {
    // The table has bit_ceil(2n) slots. Lead with names that hash to
    // the last slot, so every one after the first wraps to slot 0.
    const size_t last = std::bit_ceil(2 * n) - 1;
    std::vector<std::string> names;
    for (size_t k = 0; names.size() < std::min<size_t>(n, 3); ++k) {
      std::string name = "w" + std::to_string(k);
      if ((common::HashUnitName(name) & last) == last) names.push_back(name);
    }
    while (names.size() < n) names.push_back("u" + std::to_string(names.size()));
    const common::UnitIndex index = MakeUnitIndex(names);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(FindExact(index, names[i]), i) << "n=" << n << " " << names[i];
    }
    // A missing name whose probe starts at the last slot wraps too.
    for (size_t k = 0;; ++k) {
      std::string missing = "m" + std::to_string(k);
      if ((common::HashUnitName(missing) & last) != last) continue;
      EXPECT_EQ(FindExact(index, missing), common::UnitIndex::kNotFound)
          << "n=" << n;
      break;
    }
  }
}

TEST(UnitIndex, EveryByteSeparatesNamesAtEveryLength) {
  for (size_t len = 0; len <= 40; ++len) {
    std::string base;
    for (size_t i = 0; i < len; ++i) {
      base.push_back(static_cast<char>('a' + i % 26));
    }
    // The base name, then one variant per byte position with only that
    // byte changed.
    std::vector<std::string> names = {base};
    for (size_t pos = 0; pos < len; ++pos) {
      std::string variant = base;
      variant[pos] = static_cast<char>(variant[pos] ^ 0x01);
      names.push_back(variant);
    }
    std::set<uint64_t> hashes;
    for (const std::string& name : names) {
      hashes.insert(common::HashUnitName(name));
    }
    EXPECT_EQ(hashes.size(), names.size()) << "len=" << len;
    const common::UnitIndex index = MakeUnitIndex(names);
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(FindExact(index, names[i]), i) << "len=" << len << " i=" << i;
    }
  }
}

TEST(UnitIndex, NearMissesAreNotFound) {
  const common::UnitIndex index =
      MakeUnitIndex({"z00001", "10001", "a-unit-name-longer-than-16-bytes"});
  std::string embedded_nul = "z000";
  embedded_nul.push_back('\0');
  embedded_nul += "01";
  std::string trailing_nul = "z00001";
  trailing_nul.push_back('\0');
  for (const std::string& missing :
       {std::string(), std::string("z0000"), std::string("00001"),
        std::string("z00002"), std::string("10002"), std::string("1001"),
        std::string("a-unit-name-longer-than-16-byteS"),
        std::string("a-unit-name-longer-than-16-bytes-"), embedded_nul,
        trailing_nul}) {
    EXPECT_EQ(FindExact(index, missing), common::UnitIndex::kNotFound)
        << "'" << missing << "' (" << missing.size() << " bytes)";
  }
  EXPECT_EQ(MakeUnitIndex({}).Find("z00001"), common::UnitIndex::kNotFound);
  EXPECT_EQ(MakeUnitIndex({""}).Find(""), 0u);
}

TEST(UnitIndex, DuplicateNamesAreReported) {
  Result<common::UnitIndex> repeated =
      common::UnitIndex::Create({"a", "b", "b", "a"}, "source");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(repeated.status().message(), "duplicate source unit name 'b'");
  Result<common::UnitIndex> empty_names =
      common::UnitIndex::Create({"", ""}, "target");
  ASSERT_FALSE(empty_names.ok());
  EXPECT_EQ(empty_names.status().message(), "duplicate target unit name ''");
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  obs::Stopwatch w;
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
}

// Captured log lines for the serialization test. The sink runs under
// the logging emission mutex, so plain (non-atomic) state is safe here;
// TSan verifies that claim.
std::vector<std::string>* g_captured_lines = nullptr;

void CaptureSink(LogLevel /*level*/, const std::string& line) {
  g_captured_lines->push_back(line);
}

TEST(Logging, ThresholdIsAtomicAndSinkSerializesEmission) {
  LogLevel saved = GetLogThreshold();
  std::vector<std::string> captured;
  g_captured_lines = &captured;
  SetLogSink(&CaptureSink);
  SetLogThreshold(LogLevel::kInfo);

  constexpr int kThreads = 4;
  constexpr int kLinesPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        // Concurrent threshold flips exercise the atomic accessors.
        SetLogThreshold(i % 2 == 0 ? LogLevel::kInfo : LogLevel::kDebug);
        GEOALIGN_LOG(Warning) << "thread=" << t << " line=" << i
                              << " payload=abcdefghij";
      }
    });
  }
  for (std::thread& th : threads) th.join();
  SetLogSink(nullptr);
  SetLogThreshold(saved);
  g_captured_lines = nullptr;

  // Warnings outrank both threshold settings: every line must arrive,
  // intact (prefix and full payload), with no interleaving.
  ASSERT_EQ(captured.size(),
            static_cast<size_t>(kThreads) * kLinesPerThread);
  for (const std::string& line : captured) {
    EXPECT_TRUE(StartsWith(line, "[WARN ")) << line;
    EXPECT_NE(line.find(" payload=abcdefghij"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace geoalign
