// Tests of the benchmark's own arithmetic and input generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

Span span(Kind kind, std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.kind = kind;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, NestedTreeAddsUpToTheRoot) {
  // op [0,100) > caller [10,90) > endpoint [20,80) > {db [30,40), db [50,70)}
  std::vector<Span> spans = {
      span(Kind::kOpGet, 0, 100, -1),   span(Kind::kCaller, 10, 90, 0),
      span(Kind::kEndpoint, 20, 80, 1), span(Kind::kDbGet, 30, 40, 2),
      span(Kind::kDbPut, 50, 70, 2),
  };
  std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{20, 20, 30, 10, 20}));
  std::int64_t total = 0;
  for (std::int64_t v : self) total += v;
  EXPECT_EQ(total, 100);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenNeverGoNegative) {
  // Children overlap each other and one runs past its parent's end.
  std::vector<Span> spans = {
      span(Kind::kEndpoint, 0, 50, -1),
      span(Kind::kDbGet, 10, 40, 0),
      span(Kind::kDbGet, 30, 45, 0),
      span(Kind::kDbPut, 40, 90, 0),
      span(Kind::kDelivery, 0, 0, 0),  // zero-length child
  };
  std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 10);  // covered: [10,50) once
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(self[i], 0);
    EXPECT_LE(self[i], spans[i].end_ns - spans[i].start_ns);
  }
}

TEST(SelfTime, RandomTreesStayWithinTheirParents) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Span> spans = {span(Kind::kOpSet, 0, 1000, -1)};
    for (int i = 0; i < 12; ++i) {
      auto parent = static_cast<std::int32_t>(rng() % spans.size());
      std::int64_t a = static_cast<std::int64_t>(rng() % 1200);
      std::int64_t b = static_cast<std::int64_t>(rng() % 1200);
      spans.push_back(span(Kind::kDbGet, std::min(a, b), std::max(a, b), parent));
    }
    std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_GE(self[i], 0);
      EXPECT_LE(self[i], spans[i].end_ns - spans[i].start_ns);
    }
  }
}

TEST(SelfTime, RecorderNestsScopesAndRemapsParents) {
  set_tracing(true);
  set_request(42);
  {
    SpanScope op(Kind::kOpGet);
    {
      SpanScope caller(Kind::kCaller);
      SpanScope endpoint(Kind::kEndpoint);
    }
    SpanScope later(Kind::kDelivery);
  }
  set_tracing(false);
  { SpanScope ignored(Kind::kDbGet); }
  std::vector<Span> spans = take_spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 0);
  for (const Span& s : spans) {
    EXPECT_EQ(s.request, 42u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_TRUE(take_spans().empty());
}

TEST(Percentile, MatchesSortOracle) {
  std::mt19937_64 rng(11);
  for (std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 1001u}) {
    std::vector<std::int64_t> samples(n);
    for (auto& v : samples) v = static_cast<std::int64_t>(rng() % 100000);
    std::vector<std::int64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
      rank = std::clamp<std::size_t>(rank, 1, n);
      std::vector<std::int64_t> copy = samples;
      EXPECT_EQ(percentile(copy, p), sorted[rank - 1]) << "n=" << n << " p=" << p;
    }
  }
  std::vector<std::int64_t> empty;
  EXPECT_EQ(percentile(empty, 50), 0);
}

TEST(Workload, SameSeedSameBytesDifferentSeedDifferent) {
  for (Workload w : {Workload::kReadMostly, Workload::kResourceChurn, Workload::kSignedMix}) {
    std::string a = encode_ops(make_ops(w, 1234, 0));
    std::string b = encode_ops(make_ops(w, 1234, 0));
    std::string c = encode_ops(make_ops(w, 1235, 0));
    std::string d = encode_ops(make_ops(w, 1234, 1));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
  }
}

TEST(Workload, ShapesMatchTheirDefinitions) {
  std::vector<Op> mix = make_ops(Workload::kReadMostly, 9, 0);
  std::size_t gets = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(mix[i].stack, i % 2 == 0 ? Stack::kWsrf : Stack::kWst);
    EXPECT_LT(mix[i].counter, 256);
    if (mix[i].kind == OpKind::kGet) ++gets;
    else EXPECT_EQ(mix[i].kind, OpKind::kSet);
  }
  double share = static_cast<double>(gets) / static_cast<double>(mix.size());
  EXPECT_NEAR(share, 0.9, 0.01);

  std::vector<Op> churn = make_ops(Workload::kResourceChurn, 9, 0);
  ASSERT_EQ(churn.size() % 16, 0u);
  for (std::size_t i = 0; i + 16 <= churn.size(); i += 16) {
    EXPECT_EQ(churn[i].kind, OpKind::kCreate);
    EXPECT_EQ(churn[i + 15].kind, OpKind::kDestroy);
    // Consecutive Sets on one counter always change its value, so each
    // must produce exactly one notification.
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_NE(churn[i + 4 + s].value, 0);
      EXPECT_NE(churn[i + 4 + s].value, churn[i + 6 + s].value);
      EXPECT_NE(churn[i + 6 + s].value, churn[i + 8 + s].value);
    }
  }
}

}  // namespace
}  // namespace perfbench
