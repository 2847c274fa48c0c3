// Unit tests for the support utilities (hashing, RNG, tables, CLI).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace ttg::support;

TEST(Hash, CombineChangesValue) {
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  hash_combine(a, 42);
  EXPECT_NE(a, b);
  hash_combine(b, 42);
  EXPECT_EQ(a, b);  // deterministic
}

TEST(Hash, MemberHashPreferred) {
  struct K {
    std::uint64_t hash() const { return 7; }
  };
  EXPECT_EQ(hash_value(K{}), 7u);
}

TEST(Hash, StdHashFallback) {
  EXPECT_EQ(hash_value(123), std::hash<int>{}(123));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, UniformRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(3);
  auto p = r.permutation(50);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, NormalMoments) {
  Rng r(4);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Table, AlignsAndCsv) {
  Table t("demo", {"a", "bee"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const auto s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.csv(), "a,bee\n1,2\n333,4\n");
}

TEST(Table, RejectsBadArity) {
  Table t("x", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ApiError);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_si(1.5e9, 1), "1.5 G");
  EXPECT_EQ(fmt_si(2500.0, 1), "2.5 K");
  EXPECT_EQ(fmt_si(12.0, 0), "12");
}

TEST(Cli, ParsesOptionsAndFlags) {
  Cli cli("prog", "test");
  cli.option("nodes", "4", "node count");
  cli.option("machine", "hawk", "machine");
  cli.option("tol", "1", "tolerance");
  cli.flag("full", "run full scale");
  const char* argv[] = {"prog", "--nodes", "16", "--machine=seawulf", "--tol=-2.5e-3",
                        "--full"};
  ASSERT_TRUE(cli.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("nodes"), 16);
  EXPECT_DOUBLE_EQ(cli.get_double("tol"), -2.5e-3);
  EXPECT_EQ(cli.get("machine"), "seawulf");
  EXPECT_TRUE(cli.get_flag("full"));
}

TEST(Cli, DefaultsApply) {
  Cli cli("prog", "test");
  cli.option("nodes", "4", "node count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(cli.get_int("nodes"), 4);
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, const_cast<char**>(argv)), ApiError);
}

TEST(Cli, RejectsMissingValue) {
  Cli cli("prog", "test");
  cli.option("n", "1", "n");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, const_cast<char**>(argv)), ApiError);
}

TEST(Cli, RejectsMalformedNumbersNamingTheOption) {
  auto parsed = [](const std::string& value) {
    Cli cli("prog", "test");
    cli.option("bs", "1", "tile size");
    std::string arg = "--bs=" + value;
    char* argv[] = {const_cast<char*>("prog"), arg.data()};
    EXPECT_TRUE(cli.parse(2, argv));
    return cli;
  };
  // Empty, partly numeric or out of range: each throws, naming the option.
  for (const char* v : {"", "abc", "8k", "1.5", "99999999999999999999"}) {
    try {
      (void)parsed(v).get_int("bs");
      ADD_FAILURE() << "'" << v << "' parsed as an integer";
    } catch (const ApiError& e) {
      EXPECT_NE(std::string(e.what()).find("--bs"), std::string::npos) << e.what();
    }
  }
  for (const char* v : {"", "abc", "1e-6x", "1e999"})
    EXPECT_THROW((void)parsed(v).get_double("bs"), ApiError) << v;
}

TEST(Error, RequireThrowsApiError) {
  EXPECT_THROW(TTG_REQUIRE(false, "nope"), ApiError);
  EXPECT_NO_THROW(TTG_REQUIRE(true, "fine"));
}

}  // namespace
