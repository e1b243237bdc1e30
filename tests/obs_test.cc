// Observability layer: metric sharding under the shared pool, span-tree
// nesting, the JSON run report, and — most importantly — the guarantee that
// turning obs on or off never changes a single released byte.
//
// Every assertion about recorded values is guarded on DPCOPULA_OBS_ENABLED
// so the suite also passes (and still exercises the no-op stubs) when the
// library is built with -DDPCOPULA_OBS=OFF.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "copula/mle_estimator.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "data/generator.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/scope.h"
#include "obs/trace_export.h"

namespace dpcopula {
namespace {

bool ValidJson(const std::string& text) { return obs::ParseJson(text).ok(); }

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ObsConfig config;
    config.metrics = true;
    config.trace = true;
    obs::SetObsConfig(config);
    obs::MetricsRegistry::Global().ResetAll();
    obs::Tracer::Global().Reset();
  }
  void TearDown() override { obs::SetObsConfig(obs::ObsConfig{}); }
};

// ---------------------------------------------------------------------------
// Metrics.

TEST_F(ObsTest, CounterShardsAreRaceFreeUnderParallelFor) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("obs_test.sharded");
  constexpr std::size_t kItems = 100000;
  // grain 64 with 8 threads: many concurrent Add() calls from distinct
  // pool workers land in distinct padded slots (TSan verifies the claim).
  ParallelFor(
      0, kItems, /*grain=*/64,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) counter->Increment();
      },
      /*num_threads=*/8);
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(counter->Value(), static_cast<std::int64_t>(kItems));
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0);
#else
  EXPECT_EQ(counter->Value(), 0);
#endif
}

TEST_F(ObsTest, GaugeHoldsLastWrite) {
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("obs_test.g");
  gauge->Set(2.5);
  gauge->Set(-7.0);
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(gauge->Value(), -7.0);
#else
  EXPECT_EQ(gauge->Value(), 0.0);
#endif
}

TEST_F(ObsTest, HistogramBucketsObservationsBySeconds) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.h");
  // HDR layout: integer-nanosecond bounds, strictly monotone, +inf last.
  for (int i = 1; i < obs::Histogram::kBuckets - 1; ++i) {
    EXPECT_GT(obs::Histogram::BucketUpperBoundNanos(i),
              obs::Histogram::BucketUpperBoundNanos(i - 1));
  }
  EXPECT_TRUE(std::isinf(
      obs::Histogram::BucketUpperBound(obs::Histogram::kBuckets - 1)));

  h->Observe(3e-9);    // 3 ns: the exact small-value region (bucket == n).
  h->Observe(0.5e-6);  // 500 ns: a log bucket.
  h->Observe(1e9);     // Far past the 2^42ns range: overflow bucket.
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(h->Count(), 3);
  const auto buckets = h->BucketCounts();
  EXPECT_EQ(buckets[3], 1);
  EXPECT_EQ(buckets[static_cast<std::size_t>(
                obs::Histogram::BucketIndex(500))],
            1);
  EXPECT_EQ(buckets.back(), 1);
  std::int64_t total = 0;
  for (std::int64_t b : buckets) total += b;
  EXPECT_EQ(total, 3);
  EXPECT_GT(h->Sum(), 0.0);
  EXPECT_NEAR(h->Max(), 1e9, 1e-9 * 1e9 + 5e9);  // Clamped into range.
#else
  EXPECT_EQ(h->Count(), 0);
#endif
}

TEST_F(ObsTest, HistogramBucketIndexInvariants) {
  using H = obs::Histogram;
  // Small values are stored exactly: bucket n covers exactly {n} for n<32.
  for (std::int64_t n = 0; n < H::kSubBucketCount; ++n) {
    EXPECT_EQ(H::BucketIndex(n), static_cast<int>(n));
    EXPECT_EQ(H::BucketUpperBoundNanos(static_cast<int>(n)), n);
  }
  // Every bucket contains its own upper bound, upper bounds are tight
  // (UB+1 lands in a later bucket), and the relative bucket width is at
  // most 1/kSubBucketCount of the value.
  Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    // Log-uniform nanos across the whole tracked range.
    const double log_max = 42.0 * 0.6931471805599453;
    const std::int64_t n = static_cast<std::int64_t>(
        std::exp(rng.NextDouble() * log_max));
    const int i = H::BucketIndex(n);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, H::kBuckets);
    const std::int64_t ub = H::BucketUpperBoundNanos(i);
    if (i < H::kBuckets - 1) {
      EXPECT_LE(n, ub) << n;
      EXPECT_GT(H::BucketIndex(ub + 1), i) << n;
      const std::int64_t lb =
          (i == 0) ? 0 : H::BucketUpperBoundNanos(i - 1) + 1;
      EXPECT_GE(n, lb) << n;
      // Relative error of reporting UB for any member of the bucket.
      EXPECT_LE(static_cast<double>(ub - lb),
                static_cast<double>(lb) / H::kSubBucketCount + 1.0)
          << n;
    }
  }
  // Negative and absurd inputs clamp instead of indexing out of range.
  EXPECT_EQ(H::BucketIndex(-5), 0);
  EXPECT_EQ(H::BucketIndex(std::numeric_limits<std::int64_t>::max() / 2),
            H::kBuckets - 1);
}

TEST_F(ObsTest, HistogramQuantilesMatchExactWithinBucketError) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.hq");
  Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Mixture: microseconds-scale mass plus a sparse millisecond tail, the
    // shape of a real latency histogram.
    double seconds = 1e-6 * std::exp(3.0 * rng.NextDouble());
    if (i % 50 == 0) seconds *= 1000.0;
    values.push_back(seconds);
    h->Observe(seconds);
  }
#if DPCOPULA_OBS_ENABLED
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(sorted.size()))));
    const double exact = sorted[static_cast<std::size_t>(rank - 1)];
    const double got = h->Quantile(q);
    // The reported quantile is the inclusive bucket upper bound: never
    // below the true quantile (modulo 1ns double->int truncation), above
    // it by at most the relative bucket width.
    EXPECT_GE(got, exact - 2e-9) << "q=" << q;
    EXPECT_LE(got, exact * (1.0 + 1.0 / obs::Histogram::kSubBucketCount) +
                       2e-9)
        << "q=" << q;
  }
  const obs::Histogram::Summary summary = h->GetSummary();
  EXPECT_EQ(summary.count, static_cast<std::int64_t>(values.size()));
  EXPECT_EQ(summary.p50, h->Quantile(0.5));
  EXPECT_EQ(summary.p999, h->Quantile(0.999));
  EXPECT_LE(summary.p50, summary.p90);
  EXPECT_LE(summary.p90, summary.p99);
  EXPECT_LE(summary.p99, summary.p999);
  EXPECT_LE(summary.p999, summary.max_seconds *
                              (1.0 + 1.0 / obs::Histogram::kSubBucketCount));
#else
  EXPECT_EQ(h->Quantile(0.5), 0.0);
#endif
}

TEST_F(ObsTest, HistogramEmptyAndSingleObservationQuantiles) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.hq1");
  EXPECT_EQ(h->Quantile(0.5), 0.0);  // Empty histogram.
  h->Observe(1.5e-3);
#if DPCOPULA_OBS_ENABLED
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(h->Quantile(q), 1.5e-3 * (1.0 - 1e-9) - 2e-9);
    EXPECT_LE(h->Quantile(q),
              1.5e-3 * (1.0 + 1.0 / obs::Histogram::kSubBucketCount));
  }
#endif
}

TEST_F(ObsTest, HistogramConcurrentObserveAndQuantile) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.hc");
  constexpr std::size_t kItems = 20000;
  // Writers on pool workers race with Quantile/GetSummary readers; TSan
  // verifies the lock-free claim, the exact count verifies no lost update.
  ParallelFor(
      0, kItems, /*grain=*/128,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          h->Observe(1e-6 * static_cast<double>(1 + (i & 1023)));
          if ((i & 511) == 0) {
            const double q = h->Quantile(0.9);
            EXPECT_GE(q, 0.0);  // Racy but always well-formed.
            (void)h->GetSummary();
          }
        }
      },
      /*num_threads=*/8);
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(h->Count(), static_cast<std::int64_t>(kItems));
  EXPECT_GT(h->Quantile(0.5), 0.0);
#else
  EXPECT_EQ(h->Count(), 0);
#endif
}

TEST_F(ObsTest, RegistryReturnsStablePointersAndSnapshots) {
  obs::Counter* a = obs::MetricsRegistry::Global().GetCounter("obs_test.c1");
  obs::Counter* b = obs::MetricsRegistry::Global().GetCounter("obs_test.c1");
  EXPECT_EQ(a, b);
  a->Add(5);
  const auto snapshot = obs::MetricsRegistry::Global().Snapshot();
  const auto it = std::find_if(
      snapshot.begin(), snapshot.end(),
      [](const auto& m) { return m.name == "obs_test.c1"; });
  ASSERT_NE(it, snapshot.end());
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(it->counter_value, 5);
#endif
}

// ---------------------------------------------------------------------------
// Tracing.

TEST_F(ObsTest, SpansNestViaThreadLocalStack) {
  {
    obs::Scope outer(obs::Stage::kSynthesize);
    {
      obs::Scope middle(obs::Stage::kCorrelation);
      obs::Scope inner(obs::Stage::kKendallEstimate);
      (void)inner;
      (void)middle;
    }
    obs::Scope sibling(obs::Stage::kSampling);
    (void)sibling;
    (void)outer;
  }
#if DPCOPULA_OBS_ENABLED
  const auto spans = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  std::map<std::string, obs::SpanRecord> by_name;
  for (const auto& s : spans) by_name[std::string(s.name)] = s;
  EXPECT_EQ(by_name["synthesize"].parent, obs::kNoSpan);
  EXPECT_EQ(by_name["correlation"].parent, by_name["synthesize"].id);
  EXPECT_EQ(by_name["kendall.estimate"].parent, by_name["correlation"].id);
  EXPECT_EQ(by_name["sampling"].parent, by_name["synthesize"].id);
  for (const auto& s : spans) {
    EXPECT_GE(s.duration_ns, 0);
    EXPECT_EQ(s.index, obs::kNoIndex);
  }
#else
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());
#endif
}

TEST_F(ObsTest, ExplicitParentAttachesPoolWorkerSpans) {
  obs::SpanId parent_id = obs::kNoSpan;
  {
    obs::Scope phase(obs::Stage::kHybridSynthesize);
    parent_id = phase.id();
    // Pool workers have an empty thread-local span stack; the explicit
    // handle is the only way these children can attach to `phase`.
    ParallelFor(
        0, 8, /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            obs::Scope child(obs::Stage::kHybridPartition,
                             static_cast<std::int64_t>(i), parent_id);
            (void)child;
          }
        },
        /*num_threads=*/4);
  }
#if DPCOPULA_OBS_ENABLED
  const auto spans = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 9u);
  std::set<std::int64_t> indices;
  for (const auto& s : spans) {
    if (s.name == "hybrid.partition") {
      EXPECT_EQ(s.parent, parent_id);
      indices.insert(s.index);
    }
  }
  EXPECT_EQ(indices, (std::set<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
#endif
}

TEST_F(ObsTest, ResetDropsRecordedSpans) {
  { obs::Scope s(obs::Stage::kMargins); }
  obs::Tracer::Global().Reset();
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());
  EXPECT_EQ(obs::Tracer::Global().dropped(), 0);
}

TEST_F(ObsTest, TracerBufferIsBoundedAndCountsDrops) {
  constexpr std::size_t kExtra = 100;
  for (std::size_t i = 0; i < obs::Tracer::kMaxSpans + kExtra; ++i) {
    obs::Scope s(obs::Stage::kMargins);
  }
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(obs::Tracer::Global().Snapshot().size(), obs::Tracer::kMaxSpans);
  EXPECT_EQ(obs::Tracer::Global().dropped(),
            static_cast<std::int64_t>(kExtra));
  // The overflow also surfaces as a metric so dashboards see it without
  // walking the span buffer.
  obs::Counter* dropped_counter =
      obs::MetricsRegistry::Global().GetCounter("trace.spans_dropped");
  EXPECT_EQ(dropped_counter->Value(), static_cast<std::int64_t>(kExtra));
  // Reset drains the buffer; new spans record again.
  obs::Tracer::Global().Reset();
  { obs::Scope s(obs::Stage::kSampling); }
  EXPECT_EQ(obs::Tracer::Global().Snapshot().size(), 1u);
  EXPECT_EQ(obs::Tracer::Global().dropped(), 0);
#else
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());
#endif
}

// ---------------------------------------------------------------------------
// Chrome trace exporter.

obs::SpanRecord MakeSpan(obs::SpanId id, obs::SpanId parent,
                         const char* name, std::int64_t start_ns,
                         std::int64_t duration_ns, int thread_index,
                         std::int64_t index = obs::kNoIndex) {
  obs::SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.name = name;
  r.index = index;
  r.start_ns = start_ns;
  r.duration_ns = duration_ns;
  r.thread_index = thread_index;
  return r;
}

TEST_F(ObsTest, ChromeTraceRendersWellFormedCompleteEvents) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back(MakeSpan(1, obs::kNoSpan, "synthesize", 1000, 900000, 0));
  spans.push_back(MakeSpan(2, 1, "margins", 2500, 10000, 0));
  spans.push_back(MakeSpan(3, 1, "sampling", 20000, 800500, 2));
  spans.push_back(MakeSpan(4, 3, "hybrid.partition", 21000, 500, 2, 5));
  const std::string json = obs::RenderChromeTraceJson(spans, 7);
  EXPECT_TRUE(ValidJson(json)) << json.substr(0, 400);

  // One "X" (complete) event per span with microsecond ts/dur at
  // nanosecond precision, pid 1, and the recording thread as tid.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"synthesize\", \"cat\": \"dpcopula\", "
                      "\"ph\": \"X\", \"ts\": 1.000, \"dur\": 900.000, "
                      "\"pid\": 1, \"tid\": 0"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ts\": 2.500, \"dur\": 10.000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 2"), std::string::npos);
  // Parent linkage travels in args for tooling that reconstructs the tree.
  EXPECT_NE(json.find("\"args\": {\"id\": 2, \"parent\": 1}"),
            std::string::npos);
  // A partition span carries its number as an integer arg, not in its name.
  EXPECT_NE(json.find("\"name\": \"hybrid.partition\", "), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"id\": 4, \"parent\": 3, \"index\": 5}"),
            std::string::npos);
  // Metadata events name the process and each thread track.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread-2\""), std::string::npos);
  // The drop count is surfaced in otherData (as a string, per the format).
  EXPECT_NE(json.find("\"dropped_spans\": \"7\""), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceNestedSpansStayContained) {
  {
    obs::Scope outer(obs::Stage::kSynthesize);
    obs::Scope inner(obs::Stage::kMargins);
    (void)outer;
    (void)inner;
  }
#if DPCOPULA_OBS_ENABLED
  const auto spans = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& inner = spans[0].name == "margins" ? spans[0] : spans[1];
  const auto& outer = spans[0].name == "synthesize" ? spans[0] : spans[1];
  // Chrome interprets [ts, ts+dur]; the child interval must sit inside the
  // parent for the render to nest.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
  const std::string json = obs::RenderChromeTraceJson();
  EXPECT_TRUE(ValidJson(json));
  EXPECT_NE(json.find("\"synthesize\""), std::string::npos);
  EXPECT_NE(json.find("\"margins\""), std::string::npos);
#endif
}

TEST_F(ObsTest, ChromeTraceEmptyTraceIsValid) {
  const std::string json = obs::RenderChromeTraceJson({}, 0);
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": \"0\""), std::string::npos);
  // Names with JSON metacharacters must render escaped, not raw.
  std::vector<obs::SpanRecord> spans;
  spans.push_back(MakeSpan(1, obs::kNoSpan, "quote\"back\\\\slash", 0, 10, 0));
  const std::string escaped = obs::RenderChromeTraceJson(spans, 0);
  EXPECT_TRUE(ValidJson(escaped)) << escaped;
}

// ---------------------------------------------------------------------------
// JSON reader.

TEST(JsonReaderTest, ParsesDocumentsInOrder) {
  const auto doc = obs::ParseJson(
      " {\"b\": [1, -0, 2.5e3, true, false, null], \"a\": \"x\\u00e9\\ud83d"
      "\\ude00\\/\\n\", \"e\": {}, \"b\": []}\r\n");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->object.size(), 4u);
  EXPECT_EQ(doc->object[0].first, "b");
  EXPECT_EQ(doc->object[1].first, "a");
  EXPECT_EQ(doc->object[2].first, "e");
  // A duplicated key keeps both members; Find returns the first.
  const obs::JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array.size(), 6u);
  EXPECT_EQ(b->array[0].NumberOr(0.0), 1.0);
  EXPECT_TRUE(std::signbit(b->array[1].number));
  EXPECT_EQ(b->array[2].number, 2500.0);
  EXPECT_EQ(b->array[3].type, obs::JsonValue::Type::kBool);
  EXPECT_TRUE(b->array[3].boolean);
  EXPECT_FALSE(b->array[4].boolean);
  EXPECT_EQ(b->array[5].type, obs::JsonValue::Type::kNull);
  EXPECT_EQ(b->array[5].NumberOr(-1.0), -1.0);
  // \u escapes decode to UTF-8, a surrogate pair to one code point.
  EXPECT_EQ(doc->Find("a")->string, "x\xc3\xa9\xf0\x9f\x98\x80/\n");
  EXPECT_TRUE(doc->Find("e")->is_object());
  EXPECT_EQ(doc->Find("missing"), nullptr);
  EXPECT_EQ(b->Find("b"), nullptr);  // Not an object.
}

TEST(JsonReaderTest, RejectsEverythingOutsideTheGrammar) {
  const std::vector<std::string> bad = {
      // Empty input, bad literals, trailing bytes.
      "", " ", "tru", "nul", "True", "NaN", "Infinity", "-Infinity", "{} x",
      "1 2", "[]]", "\"a\"\"b\"", std::string("1\0", 2),
      // Numbers outside the grammar or the double range.
      "+1", ".5", "1.", "1e", "1e+", "1.e5", "01", "-", "-01", "1-2e+",
      "1e999",
      // Strings: bad escapes, raw control characters, bad \u, unterminated.
      "\"\\x\"", "\"\\q\"", "\"\\", "\"a\x01" "b\"", "\"a\nb\"", "\"a\tb\"",
      "\"abc", "[\"a\\\"]", "\"\\u12G4\"", "\"\\u12\"", "\"\\u-123\"",
      "\"\\u+123\"", "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"",
      // Structure.
      "[1,]", "[1 2]", "{\"a\":1,}", "{\"a\"}", "{1:2}", "{\"a\" 1}"};
  for (const std::string& text : bad) {
    const auto doc = obs::ParseJson(text);
    ASSERT_FALSE(doc.ok()) << "accepted: " << text;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(doc.status().message().find("at byte"), std::string::npos)
        << doc.status();
  }
  EXPECT_NE(obs::ParseJson("[1, x]").status().message().find("at byte 4"),
            std::string::npos);
}

TEST(JsonReaderTest, CapsNestingDepthWithoutCrashing) {
  auto nested = [](int depth, const char* open, const char* close) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    text += "1";
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  EXPECT_TRUE(obs::ParseJson(nested(obs::kMaxJsonDepth, "[", "]")).ok());
  EXPECT_TRUE(obs::ParseJson(nested(obs::kMaxJsonDepth, "{\"a\":", "}")).ok());
  EXPECT_FALSE(obs::ParseJson(nested(obs::kMaxJsonDepth + 1, "[", "]")).ok());
  EXPECT_FALSE(
      obs::ParseJson(nested(obs::kMaxJsonDepth + 1, "{\"a\":", "}")).ok());
  EXPECT_FALSE(obs::ParseJson(nested(100000, "[", "]")).ok());
  EXPECT_FALSE(obs::ParseJson(nested(100000, "{\"a\":[", "]}")).ok());
  EXPECT_FALSE(obs::ParseJson(std::string(2000000, '[')).ok());
}

TEST(JsonReaderTest, WriterStringsRoundTripEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string name = {'n', static_cast<char>(b), 'e'};
    all += name;
    std::string json;
    obs::internal::AppendJsonString(&json, name);
    const auto doc = obs::ParseJson(json);
    ASSERT_TRUE(doc.ok()) << "byte " << b << ": " << doc.status();
    EXPECT_EQ(doc->string, name) << "byte " << b;
  }
  std::string json;
  obs::internal::AppendJsonString(&json, all);
  const auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->string, all);
}

TEST(JsonReaderTest, WriterDoublesRoundTripBitEqual) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -3.5e-310,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                0.1,
                                1.0 / 3.0,
                                123456789.123456789,
                                -2.5e-7};
  Rng rng(17);
  while (values.size() < 2000) {
    const std::uint64_t bits = rng.NextUint64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    std::string json;
    obs::internal::AppendJsonDouble(&json, v);
    const auto doc = obs::ParseJson(json);
    ASSERT_TRUE(doc.ok()) << json << ": " << doc.status();
    ASSERT_TRUE(doc->is_number()) << json;
    std::uint64_t want, got;
    std::memcpy(&want, &v, sizeof(v));
    std::memcpy(&got, &doc->number, sizeof(v));
    EXPECT_EQ(got, want) << json;
  }
}

// ---------------------------------------------------------------------------
// Run report JSON.

data::Table MakeTable(std::uint64_t seed, std::size_t rows = 600) {
  Rng rng(seed);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("a", 40),
      data::MarginSpec::Zipf("b", 30, 1.0),
      data::MarginSpec::Uniform("c", 20)};
  return *data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(3, 0.4), rows, &rng);
}

TEST_F(ObsTest, RunReportJsonRoundTrips) {
  data::Table table = MakeTable(11);
  core::DpCopulaOptions options;
  options.epsilon = 1.0;
  options.num_threads = 4;
  Rng rng(5);
  auto result = core::Synthesize(table, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const obs::BudgetAudit audit = obs::AuditFrom(result->budget);
  const std::string json = obs::RenderRunReportJson(&audit);
  const auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << json.substr(0, 400);

  // The audit must carry the full charge log and sum to options.epsilon.
  EXPECT_NEAR(audit.spent, options.epsilon, 1e-9);
  double entry_sum = 0.0;
  for (const auto& entry : audit.entries) entry_sum += entry.epsilon;
  EXPECT_NEAR(entry_sum, options.epsilon, 1e-9);
  const obs::JsonValue* budget = parsed->Find("budget");
  ASSERT_NE(budget, nullptr);
  const obs::JsonValue* entries = budget->Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  ASSERT_EQ(entries->array.size(), audit.entries.size());
  double json_sum = 0.0;
  for (const obs::JsonValue& entry : entries->array) {
    const obs::JsonValue* epsilon = entry.Find("epsilon");
    ASSERT_NE(epsilon, nullptr);
    ASSERT_TRUE(epsilon->is_number());
    json_sum += epsilon->number;
  }
  EXPECT_NEAR(json_sum, options.epsilon, 1e-9);

#if DPCOPULA_OBS_ENABLED
  // Phase spans from the pipeline.
  for (const char* phase :
       {"\"synthesize\"", "\"budget_split\"", "\"margins\"",
        "\"correlation\"", "\"sampling\""}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
  // Counters from at least 4 instrumented modules.
  int modules = 0;
  for (const char* prefix : {"\"core.", "\"kendall.", "\"marginals.",
                             "\"parallel.", "\"sampler."}) {
    if (json.find(prefix) != std::string::npos) ++modules;
  }
  EXPECT_GE(modules, 4);
  // Stage histograms come from the scopes; the per-module duplicates of
  // them are gone.
  for (const char* kept :
       {"\"core.synthesize_seconds\"", "\"profile.margin_publish_seconds\"",
        "\"profile.tau_pairs_seconds\"", "\"profile.inverse_cdf_seconds\""}) {
    EXPECT_NE(json.find(kept), std::string::npos) << kept;
  }
  for (const char* deleted :
       {"marginals.efpa.publish_seconds", "mle.partition_fit_seconds",
        "sampler.shard_seconds"}) {
    EXPECT_EQ(json.find(deleted), std::string::npos) << deleted;
  }
#endif

  // Null audit must also render valid JSON (eval / sample-only modes).
  const std::string no_budget = obs::RenderRunReportJson(nullptr);
  EXPECT_TRUE(ValidJson(no_budget));
  EXPECT_EQ(no_budget.find("\"budget\""), std::string::npos);
}

// Partition spans: a static name plus an integer index, one span per
// partition on whatever worker ran it, and no tile- or pair-grain stage in
// the buffer.
void ExpectPartitionSpans(const std::vector<obs::SpanRecord>& spans,
                          std::string_view name, std::int64_t partitions) {
  if (!DPCOPULA_OBS_ENABLED) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  std::multiset<std::int64_t> indices;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.name.find('['), std::string_view::npos) << s.name;
    if (s.name == name) indices.insert(s.index);
  }
  std::multiset<std::int64_t> want;
  for (std::int64_t p = 0; p < partitions; ++p) want.insert(p);
  EXPECT_EQ(indices, want) << name;
  for (const obs::StageInfo& info : obs::kStageTable) {
    if (info.traced) continue;
    for (const obs::SpanRecord& s : spans) {
      EXPECT_NE(s.name, info.name) << "untraced stage recorded as a span";
    }
  }
  EXPECT_EQ(obs::Tracer::Global().dropped(), 0);
}

TEST_F(ObsTest, PartitionSpansCarryIndicesNotNames) {
  Rng data_rng(31);
  const std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Uniform("small", 4),
      data::MarginSpec::Gaussian("a", 40),
      data::MarginSpec::Zipf("b", 30, 1.0)};
  const data::Table table = *data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(3, 0.3), 4000, &data_rng);

  core::HybridOptions hybrid;
  hybrid.num_threads = 4;
  Rng hybrid_rng(8);
  auto hybrid_result = core::SynthesizeHybrid(table, hybrid, &hybrid_rng);
  ASSERT_TRUE(hybrid_result.ok()) << hybrid_result.status().ToString();
  EXPECT_EQ(hybrid_result->num_partitions, 4);
  ExpectPartitionSpans(obs::Tracer::Global().Snapshot(), "hybrid.partition",
                       hybrid_result->num_partitions);

  obs::Tracer::Global().Reset();
  copula::MleEstimatorOptions mle;
  mle.num_threads = 4;
  Rng mle_rng(9);
  auto estimate = copula::EstimateMleCorrelation(table, 1.0, &mle_rng, mle);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_GT(estimate->num_partitions, 1);
  ExpectPartitionSpans(obs::Tracer::Global().Snapshot(), "mle.partition_fit",
                       estimate->num_partitions);
}

// ---------------------------------------------------------------------------
// The core guarantee: observability never changes released bytes.

bool TablesEqual(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_columns(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

TEST_F(ObsTest, ObsOnVersusOffIsByteIdentical) {
  data::Table table = MakeTable(21);
  core::DpCopulaOptions options;
  options.epsilon = 0.8;

  auto run = [&](bool obs_on, int threads) {
    obs::ObsConfig config;
    if (obs_on) {
      config.metrics = true;
      config.trace = true;
    }
    obs::SetObsConfig(config);
    options.num_threads = threads;
    Rng rng(123);
    auto result = core::Synthesize(table, options, &rng);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result->synthetic);
  };

  const data::Table off_1 = run(false, 1);
  const data::Table on_1 = run(true, 1);
  const data::Table on_7 = run(true, 7);
  const data::Table off_7 = run(false, 7);
  EXPECT_TRUE(TablesEqual(off_1, on_1));
  EXPECT_TRUE(TablesEqual(off_1, on_7));
  EXPECT_TRUE(TablesEqual(off_1, off_7));
}

}  // namespace
}  // namespace dpcopula
