//===- tests/trace_test.cpp -----------------------------------*- C++ -*-===//
//
// Tests of the observability layer: trace spans (nesting, Chrome JSON
// export, zero recording when disabled), the metrics registry
// (counter/gauge/histogram semantics, JSON export) and the JSON toolkit
// they are built on.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

using namespace deept::support;

namespace {

/// Finds the first trace event with the given name in a parsed Chrome
/// trace document; nullptr when absent.
const JsonValue *findEvent(const JsonValue &Doc, const std::string &Name) {
  const JsonValue *Events = Doc.find("traceEvents");
  if (!Events || !Events->isArray())
    return nullptr;
  for (const JsonValue &E : Events->Items) {
    const JsonValue *N = E.find("name");
    if (N && N->StringVal == Name)
      return &E;
  }
  return nullptr;
}

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Trace::setEnabled(false);
    Trace::clear();
  }
  void TearDown() override {
    Trace::setEnabled(false);
    Trace::clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(Trace::enabled());
  for (int I = 0; I < 100; ++I) {
    DEEPT_TRACE_SPAN("should.not.appear");
  }
  EXPECT_EQ(Trace::eventCount(), 0u);
}

TEST_F(TraceTest, SpansNestAndRecord) {
  Trace::setEnabled(true);
  {
    DEEPT_TRACE_SPAN("outer");
    {
      DEEPT_TRACE_SPAN("inner");
    }
    {
      DEEPT_TRACE_SPAN("inner");
    }
  }
  // Children complete (and record) before the parent.
  EXPECT_EQ(Trace::eventCount(), 3u);
}

TEST_F(TraceTest, EnableMidwayOnlyRecordsLaterSpans) {
  {
    DEEPT_TRACE_SPAN("before");
  }
  Trace::setEnabled(true);
  {
    DEEPT_TRACE_SPAN("after");
  }
  EXPECT_EQ(Trace::eventCount(), 1u);
}

TEST_F(TraceTest, ChromeJsonParsesAndContainsSpans) {
  Trace::setEnabled(true);
  {
    DEEPT_TRACE_SPAN("deept.layer", 2);
    DEEPT_TRACE_SPAN("leaf");
  }
  JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(parseJson(Trace::toChromeJson(), Doc, &Err)) << Err;
  ASSERT_TRUE(Doc.isObject());
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_EQ(Events->Items.size(), 2u);
  // Indexed span names format as name[index].
  EXPECT_NE(findEvent(Doc, "deept.layer[2]"), nullptr);
  const JsonValue *Leaf = findEvent(Doc, "leaf");
  ASSERT_NE(Leaf, nullptr);
  // Chrome trace_event required fields on complete events.
  const JsonValue *Ph = Leaf->find("ph");
  ASSERT_NE(Ph, nullptr);
  EXPECT_EQ(Ph->StringVal, "X");
  for (const char *Field : {"ts", "dur", "pid", "tid"}) {
    const JsonValue *V = Leaf->find(Field);
    ASSERT_NE(V, nullptr) << Field;
    EXPECT_EQ(V->K, JsonValue::Kind::Number) << Field;
  }
}

TEST_F(TraceTest, StringTaggedSpansFormatAsNameTag) {
  Trace::setEnabled(true);
  {
    // The scheduler tags job spans with the result-store key.
    TraceSpan Span("sched.job", std::string("expire-precise"));
  }
  JsonValue Doc;
  ASSERT_TRUE(parseJson(Trace::toChromeJson(), Doc));
  EXPECT_NE(findEvent(Doc, "sched.job[expire-precise]"), nullptr);
}

TEST_F(TraceTest, StringTaggedSpansRecordNothingWhenDisabled) {
  ASSERT_FALSE(Trace::enabled());
  {
    TraceSpan Span("sched.job", std::string("k"));
  }
  EXPECT_EQ(Trace::eventCount(), 0u);
}

TEST_F(TraceTest, SelfTimeExcludesChildTime) {
  Trace::setEnabled(true);
  {
    DEEPT_TRACE_SPAN("parent");
    {
      DEEPT_TRACE_SPAN("child");
      volatile double X = 0;
      for (int I = 0; I < 200000; ++I)
        X = X + std::sqrt(static_cast<double>(I));
    }
  }
  JsonValue Doc;
  ASSERT_TRUE(parseJson(Trace::toChromeJson(), Doc));
  const JsonValue *Parent = findEvent(Doc, "parent");
  const JsonValue *Child = findEvent(Doc, "child");
  ASSERT_NE(Parent, nullptr);
  ASSERT_NE(Child, nullptr);
  double ParentDur = Parent->find("dur")->NumberVal;
  double ParentSelf = Parent->find("args")->find("self_us")->NumberVal;
  double ChildDur = Child->find("dur")->NumberVal;
  EXPECT_GE(ParentDur, ChildDur);
  // Self time is duration minus child time (within export rounding).
  EXPECT_NEAR(ParentSelf, ParentDur - ChildDur, 0.5);
}

TEST_F(TraceTest, ThreadedSpansAllRecorded) {
  Trace::setEnabled(true);
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < 25; ++I) {
        DEEPT_TRACE_SPAN("worker");
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Trace::eventCount(), 100u);
  JsonValue Doc;
  ASSERT_TRUE(parseJson(Trace::toChromeJson(), Doc));
}

TEST_F(TraceTest, SummaryAggregatesByName) {
  Trace::setEnabled(true);
  for (int I = 0; I < 3; ++I) {
    DEEPT_TRACE_SPAN("repeated");
  }
  std::string Summary = Trace::selfTimeSummary();
  EXPECT_NE(Summary.find("repeated"), std::string::npos);
  EXPECT_NE(Summary.find("3"), std::string::npos);
}

TEST(MetricsTest, CounterAccumulatesAndResets) {
  Metrics M;
  Counter &C = M.counter("test.counter");
  C.add();
  C.add(2.5);
  EXPECT_DOUBLE_EQ(C.value(), 3.5);
  EXPECT_DOUBLE_EQ(M.counterValue("test.counter"), 3.5);
  // Same name returns the same instrument.
  EXPECT_EQ(&M.counter("test.counter"), &C);
  M.reset();
  EXPECT_DOUBLE_EQ(C.value(), 0.0);
  // The registration (and thus the cached reference) survives reset.
  EXPECT_EQ(&M.counter("test.counter"), &C);
}

TEST(MetricsTest, GaugeSetAndRecordMax) {
  Metrics M;
  Gauge &G = M.gauge("test.gauge");
  G.set(5.0);
  G.recordMax(3.0);
  EXPECT_DOUBLE_EQ(G.value(), 5.0); // max keeps the larger value
  G.recordMax(9.0);
  EXPECT_DOUBLE_EQ(G.value(), 9.0);
}

TEST(MetricsTest, HistogramStats) {
  Metrics M;
  Histogram &H = M.histogram("test.hist");
  H.observe(1.0);
  H.observe(3.0);
  H.observe(2.0);
  Histogram::Stats S = H.stats();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_DOUBLE_EQ(S.Sum, 6.0);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 3.0);
  EXPECT_DOUBLE_EQ(S.mean(), 2.0);
  M.reset();
  EXPECT_EQ(H.stats().Count, 0u);
}

TEST(MetricsTest, ReadOnlyLookupsNeverCreate) {
  Metrics M;
  EXPECT_DOUBLE_EQ(M.counterValue("absent"), 0.0);
  EXPECT_DOUBLE_EQ(M.gaugeValue("absent"), 0.0);
  EXPECT_EQ(M.histogramStats("absent").Count, 0u);
  // toJson of an empty registry is still a valid (empty) object set.
  JsonValue Doc;
  ASSERT_TRUE(parseJson(M.toJson(), Doc));
}

TEST(MetricsTest, ConcurrentCounterAddsAreLossless) {
  Metrics M;
  Counter &C = M.counter("test.concurrent");
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&C] {
      for (int I = 0; I < 10000; ++I)
        C.add(1.0);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_DOUBLE_EQ(C.value(), 40000.0);
}

TEST(MetricsTest, ToJsonParsesAndRoundTripsValues) {
  Metrics M;
  M.counter("a.calls").add(7);
  M.gauge("b.peak").recordMax(123.5);
  M.histogram("c.sizes").observe(4.0);
  JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(parseJson(M.toJson(), Doc, &Err)) << Err;
  const JsonValue *Counters = Doc.find("counters");
  ASSERT_NE(Counters, nullptr);
  const JsonValue *A = Counters->find("a.calls");
  ASSERT_NE(A, nullptr);
  EXPECT_DOUBLE_EQ(A->NumberVal, 7.0);
  const JsonValue *Gauges = Doc.find("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_DOUBLE_EQ(Gauges->find("b.peak")->NumberVal, 123.5);
  const JsonValue *Hists = Doc.find("histograms");
  ASSERT_NE(Hists, nullptr);
  const JsonValue *CStats = Hists->find("c.sizes");
  ASSERT_NE(CStats, nullptr);
  EXPECT_DOUBLE_EQ(CStats->find("count")->NumberVal, 1.0);
  EXPECT_DOUBLE_EQ(CStats->find("mean")->NumberVal, 4.0);
}

TEST(JsonTest, ParsesScalarsArraysObjects) {
  JsonValue V;
  ASSERT_TRUE(parseJson("null", V));
  EXPECT_TRUE(V.isNull());
  ASSERT_TRUE(parseJson("true", V));
  EXPECT_TRUE(V.BoolVal);
  ASSERT_TRUE(parseJson("-12.5e2", V));
  EXPECT_DOUBLE_EQ(V.NumberVal, -1250.0);
  ASSERT_TRUE(parseJson(R"("a\"b\nA")", V));
  EXPECT_EQ(V.StringVal, "a\"b\nA");
  ASSERT_TRUE(parseJson("[1, [2, 3], {}]", V));
  ASSERT_TRUE(V.isArray());
  EXPECT_EQ(V.Items.size(), 3u);
  EXPECT_EQ(V.Items[1].Items.size(), 2u);
  ASSERT_TRUE(parseJson(R"({"k": {"n": 1}, "l": []})", V));
  ASSERT_TRUE(V.isObject());
  ASSERT_NE(V.find("k"), nullptr);
  EXPECT_DOUBLE_EQ(V.find("k")->find("n")->NumberVal, 1.0);
  EXPECT_EQ(V.find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  JsonValue V;
  std::string Err;
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
        "{\"a\" 1}", "[1 2]", "01", "+1", "nan"}) {
    EXPECT_FALSE(parseJson(Bad, V, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(JsonTest, RejectsOverlyDeepNesting) {
  std::string Deep(200, '[');
  Deep += std::string(200, ']');
  JsonValue V;
  EXPECT_FALSE(parseJson(Deep, V));
}

TEST(JsonTest, EscapeAndNumberEmission) {
  EXPECT_EQ(jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  JsonValue V;
  // Emitted numbers parse back exactly.
  ASSERT_TRUE(parseJson(jsonNumber(0.1), V));
  EXPECT_DOUBLE_EQ(V.NumberVal, 0.1);
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
}

} // namespace
