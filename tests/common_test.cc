#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace raven {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad x");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad x");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kExecutionError); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  RAVEN_ASSIGN_OR_RETURN(int half, HalveEven(x));
  RAVEN_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterViaMacro(8), 2);
  EXPECT_FALSE(QuarterViaMacro(6).ok());
  EXPECT_FALSE(QuarterViaMacro(3).ok());
}

TEST(SerializeTest, RoundTripScalars) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteI32(-42);
  w.WriteI64(1LL << 40);
  w.WriteF64(3.5);
  w.WriteF32(-1.25f);
  w.WriteBool(true);
  w.WriteString("hello");
  const std::string buf = w.Release();
  BinaryReader r(buf);
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadI32(), -42);
  EXPECT_EQ(*r.ReadI64(), 1LL << 40);
  EXPECT_EQ(*r.ReadF64(), 3.5);
  EXPECT_EQ(*r.ReadF32(), -1.25f);
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, RoundTripVectors) {
  BinaryWriter w;
  w.WriteF64Vector({1.0, 2.0, 3.0});
  w.WriteI64Vector({-1, 0, 1});
  w.WriteStringVector({"a", "", "long string here"});
  const std::string buf = w.Release();
  BinaryReader r(buf);
  EXPECT_EQ(*r.ReadF64Vector(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(*r.ReadI64Vector(), (std::vector<std::int64_t>{-1, 0, 1}));
  EXPECT_EQ(*r.ReadStringVector(),
            (std::vector<std::string>{"a", "", "long string here"}));
}

TEST(SerializeTest, TruncatedBufferIsError) {
  BinaryWriter w;
  w.WriteF64(1.0);
  std::string buf = w.Release();
  buf.resize(buf.size() - 1);
  BinaryReader r(buf);
  EXPECT_FALSE(r.ReadF64().ok());
}

TEST(SerializeTest, CorruptStringLengthIsError) {
  BinaryWriter w;
  w.WriteU32(1000000);  // claims a huge string, provides nothing
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ThreadPoolTest, NestedSubmissionsComplete) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 2; ++round) {
    TaskGroup group(&pool);
    for (int t = 0; t < 8; ++t) group.Spawn([&] { total += 1; });
    group.Wait();
  }
  EXPECT_EQ(total.load(), 16);
}

// Regression test for the nested-use hazard: a TaskGroup used from inside a
// pool worker must not enqueue-and-block on the (possibly saturated) pool.
// Every pool worker is pinned inside an outer task before any of them
// spawns, so without the inline-execution guard the nested tasks could
// only be claimed by already-blocked threads. (The test names date from
// when the pool's parallel-for helper carried the guard; TaskGroup is now
// its only home.)
TEST(ThreadPoolTest, NestedParallelForFromWorkersCompletes) {
  const std::size_t workers = ThreadPool::Global().num_threads();
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> done{0};
  std::atomic<int> inner_total{0};
  std::atomic<int> nested_on_worker{0};
  for (std::size_t t = 0; t < workers; ++t) {
    // Submit (not TaskGroup) so the tasks run on pool workers only.
    ThreadPool::Global().Submit([&] {
      // Saturate the pool: wait until every worker holds a task.
      arrived += 1;
      while (arrived.load() < workers) std::this_thread::yield();
      EXPECT_TRUE(ThreadPool::InPoolWorker());
      nested_on_worker += 1;
      TaskGroup inner;
      for (int i = 0; i < 16; ++i) inner.Spawn([&] { inner_total += 1; });
      inner.Wait();
      done += 1;
    });
  }
  while (done.load() < workers) std::this_thread::yield();
  EXPECT_EQ(nested_on_worker.load(), static_cast<int>(workers));
  EXPECT_EQ(inner_total.load(), static_cast<int>(workers) * 16);
}

// A group nested inside a group's task (the morsel executor's shape) must
// complete.
TEST(ThreadPoolTest, ParallelForInsideSubmitCompletes) {
  std::atomic<int> total{0};
  TaskGroup outer;
  for (int t = 0; t < 4; ++t) {
    outer.Spawn([&] {
      TaskGroup inner;
      for (int i = 0; i < 32; ++i) inner.Spawn([&] { total += 1; });
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(total.load(), 4 * 32);
}

TEST(TaskGroupTest, RunsAllTasksAndWaits) {
  std::atomic<int> total{0};
  TaskGroup group;
  for (int t = 0; t < 64; ++t) {
    group.Spawn([&] { total += 1; });
  }
  group.Wait();
  EXPECT_EQ(total.load(), 64);
  // Wait on an empty/finished group is a no-op.
  group.Wait();
}

TEST(MorselQueueTest, DispensesDisjointExhaustiveMorsels) {
  MorselQueue queue(10000, 256);
  EXPECT_EQ(queue.num_morsels(), 40);  // ceil(10000/256)
  std::vector<std::atomic<int>> claimed(10000);
  std::atomic<int> morsels{0};
  TaskGroup group;
  for (int w = 0; w < 8; ++w) {
    group.Spawn([&] {
      Morsel m;
      while (queue.Pop(&m)) {
        morsels += 1;
        EXPECT_EQ(m.index, m.begin / 256);
        for (std::int64_t r = m.begin; r < m.end; ++r) {
          claimed[static_cast<std::size_t>(r)] += 1;
        }
      }
    });
  }
  group.Wait();
  EXPECT_EQ(morsels.load(), 40);
  for (const auto& c : claimed) EXPECT_EQ(c.load(), 1);
}

TEST(MorselQueueTest, EmptyAndOddSizes) {
  MorselQueue empty(0, 128);
  Morsel m;
  EXPECT_FALSE(empty.Pop(&m));
  EXPECT_EQ(empty.num_morsels(), 0);

  MorselQueue tiny(3, 128);
  ASSERT_TRUE(tiny.Pop(&m));
  EXPECT_EQ(m.begin, 0);
  EXPECT_EQ(m.end, 3);
  EXPECT_FALSE(tiny.Pop(&m));
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(TrimString("  x y\t\n"), "x y");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
}

TEST(StringUtilTest, PrefixSuffixJoin) {
  EXPECT_TRUE(StartsWith("model_pipeline", "model"));
  EXPECT_FALSE(StartsWith("mo", "model"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_EQ(JoinStrings({"a", "b"}, ", "), "a, b");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) {
    x = x + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.ElapsedMicros(), 0.0);
  EXPECT_GE(t.ElapsedMillis() * 1000.0, t.ElapsedMicros() * 0.5);
}

}  // namespace
}  // namespace raven
