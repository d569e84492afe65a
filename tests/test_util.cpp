// Tests for src/util: RNG determinism and statistics, CSV/table formatting,
// CLI parsing, binary serialization, thread pool, duration formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace snntest::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GumbelMeanIsEulerGamma) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += rng.gumbel();
  EXPECT_NEAR(sum / n, 0.5772, 0.05);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(14);
  const auto p = rng.permutation(100);
  std::set<size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(15);
  const auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 20u);
}

TEST(Rng, SampleMoreThanPopulationReturnsAll) {
  Rng rng(16);
  const auto s = rng.sample_without_replacement(5, 99);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(17);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += parent.next() == child.next();
  EXPECT_LT(equal, 2);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.milliseconds(), 15.0);
  t.reset();
  EXPECT_LT(t.milliseconds(), 15.0);
}

TEST(Timer, FormatDurationUnits) {
  EXPECT_EQ(format_duration(0.0005), "500 us");
  EXPECT_EQ(format_duration(0.5), "500 ms");
  EXPECT_EQ(format_duration(2.5), "2.50 s");
  EXPECT_EQ(format_duration(180.0), "3.0 min");
  EXPECT_EQ(format_duration(2.0 * 3600.0), "2.00 h");
}

TEST(Timer, FormatDurationBoundaryUnits) {
  EXPECT_EQ(format_duration(0.0), "0 us");
  EXPECT_EQ(format_duration(-1.0), "0 us");  // negative clamps to zero
  // Each unit's switchover: the value just below stays in the smaller unit,
  // the boundary itself moves to the larger one.
  EXPECT_EQ(format_duration(0.000999), "999 us");
  EXPECT_EQ(format_duration(0.001), "1 ms");
  EXPECT_EQ(format_duration(0.999), "999 ms");
  EXPECT_EQ(format_duration(1.0), "1.00 s");
  EXPECT_EQ(format_duration(119.99), "119.99 s");
  EXPECT_EQ(format_duration(120.0), "2.0 min");
  EXPECT_EQ(format_duration(7199.0), "120.0 min");
  EXPECT_EQ(format_duration(7200.0), "2.00 h");
}

TEST(Json, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("\b\f\r\t"), "\\b\\f\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // Printable non-ASCII bytes pass through untouched (UTF-8 stays UTF-8).
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(Logging, ParseLogLevelAcceptsKnownNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
}

TEST(Logging, ParseLogLevelWarnsOnceOnUnknownName) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
  const std::string first = testing::internal::GetCapturedStderr();
  testing::internal::CaptureStderr();
  EXPECT_EQ(parse_log_level("also-bogus"), LogLevel::kInfo);
  const std::string second = testing::internal::GetCapturedStderr();
  // First bad value names itself and the accepted set; later ones are silent
  // (the warning is once-per-process).
  if (!first.empty()) {
    EXPECT_NE(first.find("bogus"), std::string::npos);
    EXPECT_NE(first.find("trace|debug|info|warn|error|off"), std::string::npos);
    EXPECT_TRUE(second.empty());
  } else {
    // Another test (or the env) already tripped the warning; the once-only
    // property is still what we observe.
    EXPECT_TRUE(second.empty());
  }
}

TEST(Csv, WritesAndQuotesFields) {
  const std::string path = testing::TempDir() + "/snntest_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c", "d\"e"});
    csv.write_row({CsvWriter::field(1.5), CsvWriter::field(size_t{7})});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1.5,7");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "10"});
  t.add_row({"longer", "3"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Format, PercentAndCounts) {
  EXPECT_EQ(fmt_pct(0.9871), "98.71%");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(12), "12");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(Cli, ParsesFlagsAndDefaults) {
  CliParser cli({{"alpha", "1.5"}, {"name", "x"}}, "test");
  const char* argv[] = {"prog", "--alpha", "2.5", "--name=hello"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 2.5);
  EXPECT_EQ(cli.get("name"), "hello");
}

TEST(Cli, RejectsUnknownFlag) {
  CliParser cli({{"a", "1"}}, "test");
  const char* argv[] = {"prog", "--bogus", "2"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(Cli, BoolParsing) {
  CliParser cli({{"flag", "false"}}, "test");
  const char* argv[] = {"prog", "--flag", "true"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_TRUE(cli.get_bool("flag"));
}

// One parse + getter round trip for the numeric-getter hardening tests.
template <typename Getter>
auto cli_numeric(const char* def, const char* value, Getter getter)
    -> decltype(getter(std::declval<CliParser&>())) {
  CliParser cli({{"n", def}}, "test");
  const std::string arg = std::string("--n=") + value;
  const char* argv[] = {"prog", arg.c_str()};
  EXPECT_TRUE(cli.parse(2, argv));
  return getter(cli);
}

TEST(Cli, GetIntAcceptsFullIntegerTokens) {
  auto get = [](CliParser& c) { return c.get_int("n"); };
  EXPECT_EQ(cli_numeric("0", "42", get), 42);
  EXPECT_EQ(cli_numeric("0", "-3", get), -3);
  EXPECT_EQ(cli_numeric("0", "+7", get), 7);
  EXPECT_EQ(cli_numeric("0", "2147483647", get), 2147483647);
}

TEST(Cli, GetIntRejectsMalformedAndOutOfRangeTokens) {
  auto get = [](CliParser& c) { return c.get_int("n"); };
  // Non-numeric, trailing garbage, empty, and out-of-int-range values must
  // all raise a clean invalid_argument — not abort via an unhandled
  // std::stoi exception with no flag context.
  EXPECT_THROW(cli_numeric("0", "abc", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "12abc", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", " 5", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "3.5", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "2147483648", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "-99999999999999999999", get), std::invalid_argument);
}

TEST(Cli, NumericErrorsNameTheFlagAndValue) {
  CliParser cli({{"lane-width", "1"}}, "test");
  const char* argv[] = {"prog", "--lane-width=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  try {
    cli.get_int("lane-width");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lane-width"), std::string::npos) << what;
    EXPECT_NE(what.find("abc"), std::string::npos) << what;
  }
}

TEST(Cli, GetSizeRejectsNegativeValues) {
  auto get = [](CliParser& c) { return c.get_size("n"); };
  EXPECT_EQ(cli_numeric("0", "8", get), 8u);
  EXPECT_EQ(cli_numeric("0", "0", get), 0u);
  // -1 through get_int would wrap to SIZE_MAX if fed straight into size_t.
  EXPECT_THROW(cli_numeric("0", "-1", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "-8", get), std::invalid_argument);
}

TEST(Cli, GetDoubleValidatesFullTokenAndRange) {
  auto get = [](CliParser& c) { return c.get_double("n"); };
  EXPECT_DOUBLE_EQ(cli_numeric("0", "2.5", get), 2.5);
  EXPECT_DOUBLE_EQ(cli_numeric("0", "-1e3", get), -1000.0);
  EXPECT_DOUBLE_EQ(cli_numeric("0", ".5", get), 0.5);
  // Underflow quietly flushes toward zero (strtod sets ERANGE but the value
  // is usable); overflow and malformed tokens are hard errors.
  EXPECT_NEAR(cli_numeric("0", "1e-320", get), 0.0, 1e-300);
  EXPECT_THROW(cli_numeric("0", "1e999", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "abc", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "1.5x", get), std::invalid_argument);
  EXPECT_THROW(cli_numeric("0", "", get), std::invalid_argument);
}

TEST(Crc32, MatchesKnownVectors) {
  // CRC-32/ISO-HDLC check vectors (zlib-compatible).
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc", 3), 0x352441C2u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog", 43), 0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const char* data = "123456789";
  uint32_t crc = crc32_init();
  crc = crc32_update(crc, data, 4);
  crc = crc32_update(crc, data + 4, 5);
  EXPECT_EQ(crc, crc32(data, 9));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string payload(64, '\x5a');
  const uint32_t clean = crc32(payload.data(), payload.size());
  for (size_t byte : {size_t{0}, payload.size() / 2, payload.size() - 1}) {
    std::string corrupt = payload;
    corrupt[byte] ^= 0x01;
    EXPECT_NE(crc32(corrupt.data(), corrupt.size()), clean) << "byte " << byte;
  }
}

TEST(Fnv1a, KnownVectorsAndSeedChaining) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a("", 0), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a", 1), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171F73967E8ull);
  // Chaining through the seed is order-sensitive.
  const uint64_t ab = fnv1a("b", 1, fnv1a("a", 1));
  const uint64_t ba = fnv1a("a", 1, fnv1a("b", 1));
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, fnv1a("ab", 2));
}

TEST(Serialize, RoundTripScalars) {
  Writer w;
  w.u32(0xDEADBEEF);
  w.u64(0x123456789ABCDEFull);
  w.f32(3.25f);
  w.f64(-1.5e300);
  w.bytes("hello world");
  Reader r(w.str(), "test");
  EXPECT_EQ(r.u32(), 0xDEADBEEF);
  EXPECT_EQ(r.u64(), 0x123456789ABCDEFull);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64(), -1.5e300);
  EXPECT_EQ(r.string(), "hello world");
  r.expect_end();
}

TEST(Serialize, RoundTripVectors) {
  const std::vector<float> v = {1.0f, -2.5f, 0.0f};
  const std::vector<float> spikes = {1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1};
  Writer w;
  w.f32_array(v.data(), v.size());
  w.bytes(pack_bits(spikes.data(), spikes.size()));
  Reader r(w.str(), "test");
  const std::string_view raw = r.f32_array({v.size()}, "values");
  std::vector<float> back(v.size());
  std::memcpy(back.data(), raw.data(), raw.size());
  EXPECT_EQ(back, v);
  const std::string_view packed = r.packed_bits(1, spikes.size());
  EXPECT_EQ(packed.size(), 2u);  // LSB-first, 8 cells per byte
  EXPECT_EQ(static_cast<uint8_t>(packed[0]), 0x59u);
  std::vector<float> unpacked(spikes.size());
  unpack_bits(packed, unpacked.data(), unpacked.size());
  EXPECT_EQ(unpacked, spikes);
}

TEST(Serialize, MagicMismatchThrows) {
  const std::string file = frame_file(0x1111, 1, "body");
  EXPECT_THROW(open_frame_file(file, 0x2222, 1, "test"), std::runtime_error);
  EXPECT_EQ(open_frame_file(file, 0x1111, 1, "test").remaining(), 4u);
}

TEST(Serialize, VersionMismatchThrows) {
  const std::string file = frame_file(0x1111, 1, "body");
  try {
    open_frame_file(file, 0x1111, 2, "some/path");
    FAIL() << "version 1 accepted as version 2";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("some/path"), std::string::npos) << what;
    EXPECT_NE(what.find("file has version 1, reader expects 2"), std::string::npos) << what;
  }
}

TEST(Serialize, TruncatedStreamThrows) {
  Writer w;
  w.u32(5);
  Reader r(w.str(), "test");
  r.u32();
  EXPECT_THROW(r.u32(), std::runtime_error);
  // A length field past the bytes left fails before anything is allocated.
  Writer big;
  big.u64(uint64_t{1} << 40);
  Reader lengths(big.str(), "test");
  EXPECT_THROW(lengths.bytes(), std::runtime_error);
}

TEST(Serialize, PackRejectsValuesOtherThanZeroAndOne) {
  const std::vector<float> data = {0.0f, 1.0f, 0.5f, 1.0f};
  try {
    pack_bits(data.data(), data.size());
    FAIL() << "0.5 packed as a spike";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos) << e.what();
  }
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  parallel_for(&pool, hits.size(), [&hits](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPool, ParallelForSerialFallback) {
  std::vector<int> hits(50, 0);
  parallel_for(nullptr, hits.size(), [&hits](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

TEST(ThreadPool, ParallelForDynamicVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(997);  // prime: chunks won't divide evenly
  for (auto& h : hits) h.store(0);
  std::atomic<bool> bad_worker{false};
  parallel_for_dynamic(&pool, hits.size(), /*grain=*/8, [&](size_t worker, size_t i) {
    if (worker >= dynamic_workers(&pool)) bad_worker.store(true);
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_FALSE(bad_worker.load());
}

TEST(ThreadPool, ParallelForDynamicSerialFallback) {
  std::vector<int> hits(50, 0);
  size_t max_worker = 0;
  parallel_for_dynamic(nullptr, hits.size(), 4, [&](size_t worker, size_t i) {
    max_worker = std::max(max_worker, worker);
    hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
  EXPECT_EQ(max_worker, 0u);
  EXPECT_EQ(dynamic_workers(nullptr), 1u);
}

TEST(ThreadPool, ParallelForDynamicZeroGrainAndEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for_dynamic(&pool, 10, /*grain=*/0, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
  parallel_for_dynamic(&pool, 0, 4, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

// --- exception contract (the shard worker runs campaigns on this pool, so
// a swallowed or process-killing task exception would corrupt a shard) ----

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // No cancellation: every submitted task still ran to completion.
  EXPECT_EQ(ran.load(), 20);
  // The exception was cleared: the pool stays usable and a clean batch
  // makes the next wait_idle return normally.
  std::atomic<int> after{0};
  for (int i = 0; i < 10; ++i) pool.submit([&after] { after.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(&pool, 100,
                            [](size_t i) {
                              if (i == 42) throw std::invalid_argument("bad index");
                            }),
               std::invalid_argument);
  // And the pool survives for the next loop.
  std::atomic<int> count{0};
  parallel_for(&pool, 50, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForDynamicPropagatesBodyException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for_dynamic(&pool, 100, /*grain=*/4,
                                    [](size_t, size_t i) {
                                      if (i == 7) throw std::out_of_range("bad chunk");
                                    }),
               std::out_of_range);
}

TEST(ThreadPool, SerialFallbackPropagatesBodyException) {
  // With no pool the loops run inline — exceptions must surface unchanged,
  // not be routed through any pool-side capture machinery.
  EXPECT_THROW(parallel_for(nullptr, 10,
                            [](size_t i) {
                              if (i == 5) throw std::runtime_error("serial");
                            }),
               std::runtime_error);
  EXPECT_THROW(parallel_for_dynamic(nullptr, 10, 2,
                                    [](size_t, size_t i) {
                                      if (i == 5) throw std::runtime_error("serial");
                                    }),
               std::runtime_error);
}

TEST(ThreadPool, StopDrainsQueuedTasksAndRejectsNewWork) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.stop();
  // stop() drains: already-submitted work is never silently dropped.
  EXPECT_EQ(ran.load(), 50);
  EXPECT_TRUE(pool.stopped());
  // A stopped pool rejects new work loudly rather than losing it.
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  // Idempotent: a second stop (and the destructor's) is a no-op.
  EXPECT_NO_THROW(pool.stop());
}

}  // namespace
}  // namespace snntest::util
