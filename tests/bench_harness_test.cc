// Tests for bench/harness.h: the flag table every bench target parses its
// command line with, the JSON writer behind every BENCH_*.json, and the
// shared timing helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/harness.h"

namespace dblrep::bench {
namespace {

/// Runs `flags.parse` over {"bench_test", args...}.
std::optional<int> parse(const Flags& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  return flags.parse(static_cast<int>(argv.size()), argv.data());
}

/// A flag table with one flag of every supported type.
struct AllTypes {
  std::size_t trials = 10;
  double min_time = 0.2;
  std::string json = "BENCH_x.json";
  bool csv = false;
  std::vector<std::string> schemes = {"pentagon"};
  std::vector<std::size_t> workers = {0, 1};
  Flags flags;

  AllTypes() {
    flags.add("trials", trials, "trials per point")
        .add("min-time", min_time, "seconds per measurement")
        .add("json", json, "output path")
        .add("csv", csv, "print CSV")
        .add("schemes", schemes, "code specs")
        .add("workers", workers, "worker counts");
  }
};

// ----------------------------------------------------------------- values

std::optional<std::size_t> parse_size(std::string_view text) {
  std::size_t value = 12345;
  if (parse_number(text, value)) return value;
  EXPECT_EQ(value, 12345u) << "failed parse modified its target";
  return std::nullopt;
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.5;
  if (parse_number(text, value)) return value;
  EXPECT_EQ(value, 0.5) << "failed parse modified its target";
  return std::nullopt;
}

TEST(BenchParse, SizeAcceptsOnlyWholeUnsignedDecimals) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("4096"), 4096u);
  EXPECT_EQ(parse_size("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "5x", "0x10", "1.5",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_size(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(BenchParse, DoubleAcceptsOnlyWholeNumbers) {
  EXPECT_EQ(parse_double("0.05"), 0.05);
  EXPECT_EQ(parse_double("-1"), -1.0);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  for (const char* bad : {"", "x", "0.1s", " 1", "1,5"}) {
    EXPECT_EQ(parse_double(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(BenchParse, SplitCsvDropsEmptyItems) {
  EXPECT_EQ(split_csv("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_csv(",x"), (std::vector<std::string>{"x"}));
  EXPECT_TRUE(split_csv("").empty());
  EXPECT_TRUE(split_csv(",,").empty());
}

// ------------------------------------------------------------------ flags

TEST(BenchFlags, AbsentFlagsKeepTheirDefaults) {
  AllTypes t;
  EXPECT_EQ(parse(t.flags, {}), std::nullopt);
  EXPECT_EQ(t.trials, 10u);
  EXPECT_EQ(t.min_time, 0.2);
  EXPECT_EQ(t.json, "BENCH_x.json");
  EXPECT_FALSE(t.csv);
  EXPECT_EQ(t.schemes, (std::vector<std::string>{"pentagon"}));
  EXPECT_EQ(t.workers, (std::vector<std::size_t>{0, 1}));
}

TEST(BenchFlags, EveryTypeParses) {
  AllTypes t;
  EXPECT_EQ(parse(t.flags, {"--trials=3", "--min-time=0.05", "--json=out.json",
                            "--csv", "--schemes=rs-10-4,,heptagon-local",
                            "--workers=0,2,8"}),
            std::nullopt);
  EXPECT_EQ(t.trials, 3u);
  EXPECT_EQ(t.min_time, 0.05);
  EXPECT_EQ(t.json, "out.json");
  EXPECT_TRUE(t.csv);
  EXPECT_EQ(t.schemes,
            (std::vector<std::string>{"rs-10-4", "heptagon-local"}));
  EXPECT_EQ(t.workers, (std::vector<std::size_t>{0, 2, 8}));
}

TEST(BenchFlags, BoolFlagWorksInAnyPosition) {
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"--csv", "--trials=2"}, {"--trials=2", "--csv"}}) {
    AllTypes t;
    EXPECT_EQ(parse(t.flags, args), std::nullopt);
    EXPECT_TRUE(t.csv);
    EXPECT_EQ(t.trials, 2u);
  }
}

TEST(BenchFlags, LastOccurrenceWinsAndEmptyValuesAreAllowed) {
  AllTypes t;
  EXPECT_EQ(parse(t.flags, {"--trials=1", "--trials=7", "--json=",
                            "--schemes="}),
            std::nullopt);
  EXPECT_EQ(t.trials, 7u);
  EXPECT_EQ(t.json, "");
  EXPECT_TRUE(t.schemes.empty());
}

TEST(BenchFlags, NegativeDoublesAreValid) {
  AllTypes t;
  EXPECT_EQ(parse(t.flags, {"--min-time=-1"}), std::nullopt);
  EXPECT_EQ(t.min_time, -1.0);
}

TEST(BenchFlags, HelpPrintsUsageAndExitsZero) {
  for (const char* help : {"--help", "-h"}) {
    AllTypes t;
    testing::internal::CaptureStdout();
    EXPECT_EQ(parse(t.flags, {"--csv", help, "--bogus"}), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("Usage: bench_test"), std::string::npos) << out;
    EXPECT_NE(out.find("--trials=N"), std::string::npos) << out;
    EXPECT_NE(out.find("trials per point (default 10)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("(default 0.2)"), std::string::npos) << out;
    EXPECT_NE(out.find("(default pentagon)"), std::string::npos) << out;
    EXPECT_NE(out.find("(default 0,1)"), std::string::npos) << out;
    EXPECT_NE(out.find("--csv "), std::string::npos) << out;
  }
}

TEST(BenchFlags, BadArgumentsExitTwo) {
  const std::vector<std::vector<std::string>> cases = {
      {"--bogus"},                  // unknown flag
      {"--trails=1"},               // typo
      {"extra"},                    // positional
      {"-x"},                       // single dash
      {"--"},                       // bare dashes
      {"--trials=x"},               // malformed number
      {"--trials=5x"},              // trailing garbage
      {"--trials="},                // empty number
      {"--trials=-1"},              // negative unsigned
      {"--trials=18446744073709551616"},  // overflowing unsigned
      {"--workers=0,-1"},           // negative list item
      {"--workers=1,x"},            // malformed list item
      {"--min-time=fast"},          // malformed double
      {"--trials", "5"},            // missing '='
      {"--json"},                   // string flag without a value
      {"--csv=1"},                  // bool flag with a value
  };
  for (const auto& args : cases) {
    AllTypes t;
    testing::internal::CaptureStderr();
    EXPECT_EQ(parse(t.flags, args), 2) << args[0];
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    EXPECT_NE(err.find(args[0]), std::string::npos) << err;
  }
}

TEST(BenchFlags, MissingValueNamesTheExpectedForm) {
  AllTypes t;
  testing::internal::CaptureStderr();
  EXPECT_EQ(parse(t.flags, {"--trials", "5"}), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--trials=N"), std::string::npos) << err;
  EXPECT_EQ(t.trials, 10u);
}

// ------------------------------------------------------------------- JSON

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchJson, NestingCommasAndLayout) {
  const std::string path = temp_path("bench_harness_layout.json");
  JsonWriter json(path);
  json.field("bench", "x").field("n", std::size_t{3}).field("ok", true);
  json.object("gate").field("applicable", false).field("ratio", 1.5).end();
  json.array("results");
  json.object().field("scheme", "a").field("bytes", 10).end();
  json.object()
      .field("scheme", "b")
      .array("per_round")
      .item(1)
      .item(2)
      .end()
      .object("inner")
      .field("k", 0)
      .end()
      .end();
  json.end();
  json.array("empty").end();
  json.raw("report", "{\"r\": 1}");
  ASSERT_TRUE(json.finish());
  EXPECT_EQ(slurp(path),
            "{\n"
            "  \"bench\": \"x\",\n"
            "  \"n\": 3,\n"
            "  \"ok\": true,\n"
            "  \"gate\": {\n"
            "    \"applicable\": false,\n"
            "    \"ratio\": 1.5\n"
            "  },\n"
            "  \"results\": [\n"
            "    {\"scheme\": \"a\", \"bytes\": 10},\n"
            "    {\"scheme\": \"b\", \"per_round\": [1, 2], "
            "\"inner\": {\"k\": 0}}\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"report\": {\"r\": 1}\n"
            "}\n");
}

TEST(BenchJson, StringsAreEscaped) {
  const std::string path = temp_path("bench_harness_escape.json");
  JsonWriter json(path);
  json.field("s", std::string("q\"b\\n\nt\tc\x01"));
  json.field("k\"ey", "v");
  ASSERT_TRUE(json.finish());
  EXPECT_EQ(slurp(path),
            "{\n  \"s\": \"q\\\"b\\\\n\\u000at\\u0009c\\u0001\",\n"
            "  \"k\\\"ey\": \"v\"\n}\n");
}

TEST(BenchJson, NumbersMatchOstreamFormatting) {
  const std::vector<double> doubles = {0.0, 0.1, 1.0 / 3, 1e-7, 2.5e300,
                                       123456789.0, 42.0, -3.25};
  const std::vector<std::size_t> sizes = {
      0, 7, std::numeric_limits<std::size_t>::max()};
  const std::string path = temp_path("bench_harness_numbers.json");
  JsonWriter json(path);
  json.object("numbers").array("d");
  for (double d : doubles) json.item(d);
  json.end().array("u");
  for (std::size_t u : sizes) json.item(u);
  json.end().end();
  ASSERT_TRUE(json.finish());

  std::ostringstream want;
  want << "{\n  \"numbers\": {\n    \"d\": [";
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    want << (i ? ", " : "") << doubles[i];
  }
  want << "],\n    \"u\": [";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    want << (i ? ", " : "") << sizes[i];
  }
  want << "]\n  }\n}\n";
  EXPECT_EQ(slurp(path), want.str());
}

TEST(BenchJson, FinishFailsWhenTheFileCannotBeOpened) {
  const std::string path =
      temp_path("bench_harness_no_such_dir/sub/out.json");
  JsonWriter json(path);
  json.field("bench", "x").array("results").item(1).end();
  testing::internal::CaptureStderr();
  EXPECT_FALSE(json.finish());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cannot write " + path), std::string::npos) << err;
}

TEST(BenchJson, FinishFailsWhenTheFinalFlushFails) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  JsonWriter json("/dev/full");
  json.field("bench", "x");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(json.finish());
  testing::internal::GetCapturedStderr();
}

// ----------------------------------------------------------------- timing

TEST(BenchTiming, MeasureRunsWarmupPlusAtLeastOneTimedCall) {
  int calls = 0;
  const double mb_s = measure_mb_s(0.0, 1 << 20, [&] { ++calls; });
  EXPECT_GE(calls, 2);
  EXPECT_GT(mb_s, 0.0);
  const auto start = Clock::now();
  EXPECT_GE(seconds_since(start), 0.0);
}

}  // namespace
}  // namespace dblrep::bench
