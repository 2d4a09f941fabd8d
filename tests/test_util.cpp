// Unit tests for dsmr::util — RNG determinism, statistics, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dsmr::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork(0);
  Rng parent2(5);
  Rng child2 = parent2.fork(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next(), child2.next());

  Rng parent3(5);
  Rng other = parent3.fork(1);
  int equal = 0;
  Rng child3 = Rng(5).fork(0);
  for (int i = 0; i < 100; ++i) equal += child3.next() == other.next();
  EXPECT_LT(equal, 3);
}

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats stats;
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  // Sample variance of the data set is 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, left, right;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform() * 100;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(LogHistogram, QuantilesBracketSamples) {
  LogHistogram hist;
  for (std::uint64_t i = 1; i <= 1024; ++i) hist.add(i);
  EXPECT_EQ(hist.count(), 1024u);
  // The median of 1..1024 is ~512; the bucket estimate must be within 2x.
  const double median = hist.quantile(0.5);
  EXPECT_GE(median, 256.0);
  EXPECT_LE(median, 1024.0);
  EXPECT_LE(hist.quantile(0.0), hist.quantile(1.0));
}

TEST(LogHistogram, RenderShowsBuckets) {
  LogHistogram hist;
  hist.add(1);
  hist.add(100);
  const std::string out = hist.render();
  EXPECT_NE(out.find("#"), std::string::npos);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "2.50"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.234567, 2), "1.23");
  EXPECT_EQ(Table::fmt_int(42), "42");
}


TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=2.5", "--gamma", "--name", "xyz"};
  Cli cli(7, const_cast<char**>(argv), "usage");
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 2.5);
  EXPECT_TRUE(cli.get_flag("gamma"));
  EXPECT_EQ(cli.get_string("name", ""), "xyz");
  cli.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv), "usage");
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("missing2", 1.5), 1.5);
  EXPECT_FALSE(cli.get_flag("missing3"));
  EXPECT_EQ(cli.get_string("missing4", "dft"), "dft");
  cli.finish();
}

TEST(Cli, FlagFalseValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=true"};
  Cli cli(4, const_cast<char**>(argv), "usage");
  EXPECT_FALSE(cli.get_flag("a"));
  EXPECT_FALSE(cli.get_flag("b"));
  EXPECT_TRUE(cli.get_flag("c"));
  cli.finish();
}

TEST(ParseInt, StrictAcceptsOnlyWholeIntegers) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ULL);
  // The silent-truncation class of bugs this replaces:
  EXPECT_FALSE(parse_i64("12abc").has_value());
  EXPECT_FALSE(parse_i64("abc").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_FALSE(parse_i64(" 3").has_value());
  EXPECT_FALSE(parse_i64("3 ").has_value());
  EXPECT_FALSE(parse_i64("99999999999999999999999").has_value());  // overflow.
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow.
}

TEST(SeedRange, ParsesCountAndInclusiveRangeForms) {
  std::string error;
  auto range = parse_seed_range("64", 1, &error);
  ASSERT_TRUE(range.has_value()) << error;
  EXPECT_EQ(*range, (SeedRange{1, 64}));
  // The count form starts at the caller's default first seed.
  EXPECT_EQ(parse_seed_range("8", 100), (SeedRange{100, 8}));
  EXPECT_EQ(parse_seed_range("10..20", 1), (SeedRange{10, 11}));
  EXPECT_EQ(parse_seed_range("5..5", 1), (SeedRange{5, 1}));
}

TEST(SeedRange, RejectsMalformedRangesWithAMessage) {
  for (const char* text : {"", "abc", "12abc", "0", "10..", "..10", "3..x",
                           "20..10", "1...5", "-3..4",
                           // The full u64 range: its count wraps to 0.
                           "0..18446744073709551615"}) {
    std::string error;
    EXPECT_FALSE(parse_seed_range(text, 1, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // The near-maximal range is still representable and accepted.
  EXPECT_EQ(parse_seed_range("1..18446744073709551615", 1),
            (SeedRange{1, 18446744073709551615ULL}));
}

TEST(SeedRange, CountFormOverflowAtTheU64Boundary) {
  // Accepted exactly up to the edge: the last seed first + count - 1 may
  // equal 2^64-1 but never pass it.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_seed_range("18446744073709551615", 1), (SeedRange{1, max}));
  EXPECT_EQ(parse_seed_range("1", max), (SeedRange{max, 1}));
  EXPECT_EQ(parse_seed_range("2", max - 1), (SeedRange{max - 1, 2}));

  // One past the edge: the sweep would wrap past 2^64-1 and silently
  // repeat low seeds — rejected with a message instead.
  for (const auto& [text, first] :
       std::vector<std::pair<std::string, std::uint64_t>>{
           {"18446744073709551615", 2},  // last seed = 2^64, unrepresentable.
           {"2", max},
           {"3", max - 1}}) {
    std::string error;
    EXPECT_FALSE(parse_seed_range(text, first, &error).has_value())
        << text << " from " << first;
    EXPECT_NE(error.find("overflows"), std::string::npos) << error;
  }

  // The inclusive-range form caps at HI = 2^64-1 by grammar; the boundary
  // singleton and the widest non-wrapping ranges parse.
  EXPECT_EQ(parse_seed_range("18446744073709551615..18446744073709551615", 1),
            (SeedRange{max, 1}));
  EXPECT_EQ(parse_seed_range("2..18446744073709551615", 1), (SeedRange{2, max - 1}));
}

TEST(Cli, SeedRangeFlagSharedGrammar) {
  const char* argv[] = {"prog", "--seeds", "7..9"};
  Cli cli(3, const_cast<char**>(argv), "usage");
  EXPECT_EQ(cli.get_seed_range("seeds", SeedRange{1, 32}), (SeedRange{7, 3}));
  cli.finish();

  const char* argv2[] = {"prog"};
  Cli defaults(1, const_cast<char**>(argv2), "usage");
  EXPECT_EQ(defaults.get_seed_range("seeds", SeedRange{5, 16}), (SeedRange{5, 16}));
  defaults.finish();
}

TEST(CliDeath, HasSeesPassedFlagsAndConsumesNothing) {
  const char* argv[] = {"prog", "--threads", "2", "--no-shrink"};
  Cli cli(4, const_cast<char**>(argv), "usage");
  EXPECT_TRUE(cli.has("threads"));
  EXPECT_TRUE(cli.has("no-shrink"));
  EXPECT_FALSE(cli.has("verbose"));
  EXPECT_EQ(cli.get_int("threads", 1), 2);
  // A flag only asked about with has() is still unknown to finish().
  EXPECT_EXIT(cli.finish(), ::testing::ExitedWithCode(2), "unknown flag --no-shrink");
}

TEST(CliDeath, MalformedSeedRangeIsALoudError) {
  const char* argv[] = {"prog", "--seeds", "20..10"};
  Cli cli(3, const_cast<char**>(argv), "usage");
  EXPECT_DEATH(cli.get_seed_range("seeds", SeedRange{1, 32}), "--seeds");
}

TEST(CliDeath, MalformedIntegerIsALoudErrorNotATruncation) {
  const char* argv[] = {"prog", "--alpha", "12abc", "--beta", "xyz"};
  Cli cli(5, const_cast<char**>(argv), "usage");
  EXPECT_DEATH(cli.get_int("alpha", 0), "expects an integer");
  EXPECT_DEATH(cli.get_int("beta", 0), "expects an integer");
}

TEST(Cli, DoubleAcceptsPlainDecimalIncludingDenormals) {
  const char* argv[] = {"prog", "--a", "0.25", "--b=-1.5e2", "--c", "1e-320"};
  Cli cli(6, const_cast<char**>(argv), "usage");
  EXPECT_DOUBLE_EQ(cli.get_double("a", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0.0), -150.0);
  // Underflow to a denormal is a valid value, not an error.
  EXPECT_GT(cli.get_double("c", 1.0), 0.0);
  cli.finish();
}

TEST(CliDeath, DoubleRejectsNonDecimalForms) {
  const char* argv[] = {"prog", "--a", "nan", "--b", "inf", "--c", "0x1A",
                        "--d", "1e400"};
  Cli cli(9, const_cast<char**>(argv), "usage");
  EXPECT_DEATH(cli.get_double("a", 0.0), "expects a number");
  EXPECT_DEATH(cli.get_double("b", 0.0), "expects a number");
  EXPECT_DEATH(cli.get_double("c", 0.0), "expects a number");
  EXPECT_DEATH(cli.get_double("d", 0.0), "expects a number");  // overflow.
}

TEST(CliDeath, UnknownFlagPanicsOnFinish) {
  const char* argv[] = {"prog", "--tpyo", "1"};
  Cli cli(3, const_cast<char**>(argv), "usage");
  EXPECT_DEATH(cli.finish(), "unknown flag --tpyo");
}

TEST(CliDeath, NonFlagArgumentRejected) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_DEATH(Cli(2, const_cast<char**>(argv), "usage"), "flags must start with --");
}

TEST(CliDeath, UsageErrorsExitWithStatusTwoNotAnAbort) {
  // A malformed command line is the caller's input: every usage error
  // prints its message and exits 2 (the tools' invalid-input status).
  const char* argv[] = {"prog",     "--int",  "abc", "--uint", "-1",     "--num",
                        "1e400",    "--seeds", "0",  "--big",  "4294967297x"};
  Cli cli(11, const_cast<char**>(argv), "usage");
  const auto two = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(cli.get_int("int", 0), two, "--int expects an integer, got 'abc'");
  EXPECT_EXIT(cli.get_uint("uint", 0), two, "--uint expects a non-negative integer");
  EXPECT_EXIT(cli.get_double("num", 0.0), two, "--num expects a number");
  EXPECT_EXIT(cli.get_seed_range("seeds", SeedRange{1, 32}), two,
              "--seeds: seed count must be positive");
  EXPECT_EXIT(cli.get_int("big", 0), two, "--big expects an integer");
  EXPECT_EXIT(cli.finish(), two, "unknown flag --");

  const char* stray[] = {"prog", "stray"};
  EXPECT_EXIT(Cli(2, const_cast<char**>(stray), "usage"), two,
              "flags must start with --, got: stray");
}

TEST(CliDeath, OutOfRangeIntExitsTwoBeforeNarrowing) {
  // 2^32 + 3 would wrap to 3 at a static_cast<int>; the range check sees the
  // full 64-bit value first.
  const char* argv[] = {"prog", "--ranks", "4294967299", "--reps", "0", "--ok", "3"};
  Cli cli(7, const_cast<char**>(argv), "usage");
  const auto two = ::testing::ExitedWithCode(2);
  constexpr std::int64_t kIntMax = 2147483647;
  EXPECT_EXIT(cli.get_int_in("ranks", 3, 1, kIntMax), two,
              "--ranks must be in \\[1, 2147483647\\], got 4294967299");
  EXPECT_EXIT(cli.get_int_in("reps", 3, 1, kIntMax), two, "--reps must be in");
  EXPECT_EQ(cli.get_int_in("ok", 1, 1, 8), 3);
  EXPECT_EQ(cli.get_int_in("absent", 5, 1, 8), 5);
}

}  // namespace
}  // namespace dsmr::util
