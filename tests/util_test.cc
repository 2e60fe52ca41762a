#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "util/check.h"
#include "util/csv.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace qnn {
namespace {

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(QNN_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(QNN_CHECK(false), CheckError);
}

TEST(Check, MessageIncludesExpressionAndLocation) {
  try {
    QNN_CHECK_MSG(2 < 1, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
    EXPECT_NE(what.find("util_test.cc"), std::string::npos);
  }
}

TEST(Logging, ThresholdFiltersLevels) {
  set_log_threshold(LogLevel::kError);
  // Below threshold: must not crash and must not emit (can't capture
  // stderr portably here; just exercise the path).
  QNN_LOG(Info) << "suppressed";
  set_log_threshold(LogLevel::kInfo);
  EXPECT_EQ(log_threshold(), LogLevel::kInfo);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

TEST(Logging, ParseLogLevelAcceptsNamesAndDigits) {
  LogLevel lvl = LogLevel::kInfo;
  EXPECT_TRUE(parse_log_level("debug", &lvl));
  EXPECT_EQ(lvl, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("WARN", &lvl));
  EXPECT_EQ(lvl, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("Warning", &lvl));
  EXPECT_EQ(lvl, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("error", &lvl));
  EXPECT_EQ(lvl, LogLevel::kError);
  EXPECT_TRUE(parse_log_level("0", &lvl));
  EXPECT_EQ(lvl, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("3", &lvl));
  EXPECT_EQ(lvl, LogLevel::kError);

  // Unrecognized spellings leave *out untouched.
  lvl = LogLevel::kInfo;
  EXPECT_FALSE(parse_log_level("", &lvl));
  EXPECT_FALSE(parse_log_level("verbose", &lvl));
  EXPECT_FALSE(parse_log_level("4", &lvl));
  EXPECT_FALSE(parse_log_level("1x", &lvl));
  EXPECT_EQ(lvl, LogLevel::kInfo);
}

TEST(Logging, PrefixCarriesLevelThreadAndSourceSite) {
  // "[WARN HH:MM:SS.mmm tN file.cc:42] " — the whole prefix the single
  // fwrite line starts with. The timestamp is wall-clock so only its
  // shape is checked.
  const std::string p =
      format_log_prefix(LogLevel::kWarn, "/a/b/sweep.cc", 42);
  EXPECT_EQ(p.rfind("[WARN ", 0), 0u);
  EXPECT_NE(p.find(" t" + std::to_string(log_thread_id()) + " "),
            std::string::npos);
  EXPECT_NE(p.find(" sweep.cc:42] "), std::string::npos);
  EXPECT_EQ(p.find("/a/b/"), std::string::npos);  // basename only
  EXPECT_EQ(p.back(), ' ');
  // HH:MM:SS.mmm right after the level name: digits and separators.
  const std::string ts = p.substr(6, 12);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (i == 2 || i == 5)
      EXPECT_EQ(ts[i], ':') << ts;
    else if (i == 8)
      EXPECT_EQ(ts[i], '.') << ts;
    else
      EXPECT_TRUE(ts[i] >= '0' && ts[i] <= '9') << ts;
  }
}

TEST(Logging, ThreadIdsAreSmallDenseAndStable) {
  const int here = log_thread_id();
  EXPECT_GE(here, 0);
  EXPECT_EQ(here, log_thread_id());  // stable within a thread
  int other = -1;
  std::thread([&] { other = log_thread_id(); }).join();
  EXPECT_GE(other, 0);
  EXPECT_NE(other, here);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(Rng, NormalHasRoughMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // The child stream should not replay the parent's next values.
  Rng b(5);
  (void)b.fork();
  EXPECT_NE(child.uniform(), a.uniform());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"Name", "Value"});
  t.add_row({"alpha", "1.0"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  // Header rule present.
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, SeparatorRows) {
  Table t({"Alpha", "Beta"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"y", "2"});
  const std::string s = t.to_string();
  // Two full-width rules: one under the header, one separator.
  const auto first = s.find("----");
  ASSERT_NE(first, std::string::npos);
  const auto next_line = s.find('\n', first);
  const auto second = s.find("----", next_line);
  EXPECT_NE(second, std::string::npos);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(format_percent(85.406, 2), "85.41");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/qnn_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row({"1", "x,y"});
    w.add_row({"2", "line\"quote"});
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1,\"x,y\"");
  EXPECT_EQ(l3, "2,\"line\"\"quote\"");
  std::filesystem::remove(path);
}

TEST(Csv, ArityEnforced) {
  const std::string path = ::testing::TempDir() + "/qnn_csv_arity.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.add_row({"1"}), CheckError);
  w.close();
  std::filesystem::remove(path);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  const double t0 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

TEST(FileIo, AtomicWriteRoundTrip) {
  const std::string path = ::testing::TempDir() + "/qnn_atomic.bin";
  const std::string payload = std::string("bin\0ary", 7) + "\ndata";
  write_file_atomic(path, payload);
  EXPECT_EQ(read_file(path), payload);
  // The temp staging file must not survive.
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // Overwrite in place.
  write_file_atomic(path, "second");
  EXPECT_EQ(read_file(path), "second");
  std::filesystem::remove(path);
}

TEST(FileIo, ReadMissingFileNamesPath) {
  try {
    read_file("/nonexistent/qnn_nope.bin");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("qnn_nope.bin"),
              std::string::npos);
  }
}

TEST(CsvParse, RoundTripsWriterQuoting) {
  const std::string path = ::testing::TempDir() + "/qnn_csv_rt.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.add_row({"1", "x,y"});
    w.add_row({"2", "line\"quote"});
    w.add_row({"3", "multi\nline"});
  }
  const auto rows = read_csv(path);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "x,y"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"2", "line\"quote"}));
  EXPECT_EQ(rows[3], (std::vector<std::string>{"3", "multi\nline"}));
  std::filesystem::remove(path);
}

TEST(CsvParse, AcceptsCrlfAndSkipsBlankLines) {
  const auto rows = parse_csv("a,b\r\n\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParse, StripsUtf8ByteOrderMark) {
  // Spreadsheet exports routinely prepend a UTF-8 BOM; it must not leak
  // into the first header cell.
  const auto rows = parse_csv("\xEF\xBB\xBFid,label\n1,cat\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"id", "label"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "cat"}));

  // BOM + CRLF together — the classic "edited on Windows" file.
  const auto crlf = parse_csv("\xEF\xBB\xBF" "a,b\r\n1,2\r\n");
  ASSERT_EQ(crlf.size(), 2u);
  EXPECT_EQ(crlf[0], (std::vector<std::string>{"a", "b"}));

  // A BOM alone (or a truncated BOM prefix) is not a row.
  EXPECT_TRUE(parse_csv("\xEF\xBB\xBF").empty());
  const auto partial = parse_csv("\xEF\xBBx,y\n");
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0], (std::vector<std::string>{"\xEF\xBBx", "y"}));
}

TEST(CsvParse, BomDoesNotShiftErrorLineNumbers) {
  try {
    parse_csv("\xEF\xBB\xBFok,row\nbad\"cell,x\n", "data.csv");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("data.csv:2"), std::string::npos);
  }
}

TEST(CsvParse, ErrorsCarrySourceAndLine) {
  try {
    parse_csv("ok,row\nbad\"cell,x\n", "data.csv");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("data.csv:2"), std::string::npos);
  }
  try {
    parse_csv("a,\"unterminated\n...", "data.csv");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unterminated"),
              std::string::npos);
  }
  EXPECT_THROW(parse_csv("a,\"b\"garbage\n"), CheckError);
}

TEST(Json, DumpParseRoundTrip) {
  json::Value obj = json::Value::object();
  obj.set("name", json::Value("sweep"));
  obj.set("count", json::Value(std::int64_t{42}));
  obj.set("exact", json::Value(1.0 / 3.0));
  obj.set("flag", json::Value(true));
  obj.set("nothing", json::Value());
  json::Value arr = json::Value::array();
  arr.push_back(json::Value(std::int64_t{-1}));
  arr.push_back(json::Value(std::string("x\"y\n")));
  obj.set("list", std::move(arr));

  const json::Value back = json::parse(obj.dump(), "<test>");
  EXPECT_EQ(back.at("name").as_string(), "sweep");
  EXPECT_EQ(back.at("count").as_int(), 42);
  // Doubles survive text round-trips bit-for-bit (max_digits10).
  EXPECT_DOUBLE_EQ(back.at("exact").as_double(), 1.0 / 3.0);
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_EQ(back.at("nothing").kind(), json::Value::Kind::kNull);
  EXPECT_EQ(back.at("list").at(1).as_string(), "x\"y\n");
  // A whole double dumps with ".0" so the kind round-trips too.
  EXPECT_EQ(back.at("exact").kind(), json::Value::Kind::kDouble);
}

TEST(Json, StripsUtf8ByteOrderMark) {
  const json::Value v =
      json::parse("\xEF\xBB\xBF{\"a\": 1}", "bom.json");
  EXPECT_EQ(v.at("a").as_int(), 1);
  // BOM + CRLF, and errors keep their file:line anchors.
  const json::Value crlf =
      json::parse("\xEF\xBB\xBF{\r\n  \"b\": 2\r\n}", "bom.json");
  EXPECT_EQ(crlf.at("b").as_int(), 2);
  try {
    json::parse("\xEF\xBB\xBF{\n  oops\n}", "ck.json");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ck.json:2"), std::string::npos);
  }
  // A lone BOM is still an empty document.
  EXPECT_THROW(json::parse("\xEF\xBB\xBF"), CheckError);
}

TEST(Json, ParseErrorsCarrySourceAndLine) {
  try {
    json::parse("{\n  \"a\": 1,\n  oops\n}", "ck.json");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ck.json:3"), std::string::npos);
  }
  EXPECT_THROW(json::parse("{\"a\": }"), CheckError);
  EXPECT_THROW(json::parse("[1, 2"), CheckError);
  EXPECT_THROW(json::parse(""), CheckError);
  EXPECT_THROW(json::parse("{} trailing"), CheckError);
}

TEST(Json, AccessorsAreChecked) {
  const json::Value v = json::parse("{\"n\": 1}");
  EXPECT_THROW(v.at("missing"), CheckError);
  EXPECT_THROW(v.at("n").as_string(), CheckError);
  EXPECT_THROW(v.at(std::size_t{0}), CheckError);  // not an array
  EXPECT_EQ(v.at("n").as_int(), 1);
  // Ints widen to double on request.
  EXPECT_DOUBLE_EQ(v.at("n").as_double(), 1.0);
}

}  // namespace
}  // namespace qnn
