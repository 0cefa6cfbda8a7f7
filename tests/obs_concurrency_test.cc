// obs under concurrency (TSan tier-2 target, -DMODELARDB_SANITIZE=thread):
// many writer threads hammer counters/gauges/histograms while reader
// threads take registry snapshots and render them; totals must be exactly
// conserved once the writers join — sharding may split the increments,
// never lose them.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace modelardb {
namespace obs {
namespace {

class ObsConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    MetricsRegistry::Global().ResetForTest();
    Tracer::Global().ResetForTest();
  }
};

TEST_F(ObsConcurrencyTest, CounterWritersVsSnapshotReaders) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 20000;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter(kStorePutTotal);  // Exists before readers start.
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        for (const MetricSample& sample : registry.Snapshot()) {
          if (sample.name == kStorePutTotal) {
            // Monotone and never above the final total.
            EXPECT_GE(sample.counter_value, 0);
            EXPECT_LE(sample.counter_value,
                      int64_t{kWriters} * kPerWriter);
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      Counter& counter = registry.GetCounter(kStorePutTotal);
      for (int i = 0; i < kPerWriter; ++i) counter.Add();
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(registry.GetCounter(kStorePutTotal).Value(),
            int64_t{kWriters} * kPerWriter);
}

TEST_F(ObsConcurrencyTest, HistogramBucketTotalsConserved) {
  constexpr int kWriters = 6;
  constexpr int kPerWriter = 5000;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& histogram = registry.GetHistogram(kQuerySeconds);
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load()) {
      Histogram::Snapshot snapshot = histogram.Read();
      int64_t total = 0;
      for (int64_t b : snapshot.buckets) total += b;
      // A torn read may see a bucket before/after its neighbour, but the
      // total can never exceed what writers have produced so far.
      EXPECT_LE(total, int64_t{kWriters} * kPerWriter);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        // Spread observations across several buckets, +Inf included.
        histogram.Observe(1e-6 * (1 << (i % 25)) * (w + 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  Histogram::Snapshot snapshot = histogram.Read();
  EXPECT_EQ(snapshot.count, int64_t{kWriters} * kPerWriter);
  int64_t total = 0;
  for (int64_t b : snapshot.buckets) total += b;
  EXPECT_EQ(total, snapshot.count);  // Conservation: nothing lost.
  EXPECT_GT(snapshot.buckets[Histogram::kNumBounds], 0);  // +Inf hit.
}

TEST_F(ObsConcurrencyTest, LazyRegistrationRacesAreSafe) {
  constexpr int kThreads = 8;
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        registry.GetCounter(kPoolTasksTotal).Add();
        registry
            .GetGauge(kIngestSegments, "model",
                      "m" + std::to_string((t + i) % 3))
            .Set(static_cast<double>(i));
        registry.GetHistogram(kPoolTaskSeconds).Observe(1e-4);
        if (i % 100 == 0) RenderPrometheus(registry.Snapshot());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter(kPoolTasksTotal).Value(), kThreads * 500);
  EXPECT_EQ(registry.GetHistogram(kPoolTaskSeconds).Read().count,
            kThreads * 500);
}

TEST_F(ObsConcurrencyTest, TracerSpansFromManyThreads) {
  Tracer& tracer = Tracer::Global();
  constexpr int kThreads = 6;
  std::unique_ptr<Trace> trace = tracer.StartTrace("concurrent");
  ASSERT_NE(trace, nullptr);
  ScopedSpan root(trace.get(), "fan-out");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t, parent = root.id()] {
      for (int i = 0; i < 200; ++i) {
        ScopedSpan span(trace.get(),
                        "morsel gid=" + std::to_string(t), parent);
      }
    });
  }
  // Concurrent snapshots while spans open and close.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      std::vector<SpanRecord> spans = trace->Spans();
      for (const SpanRecord& span : spans) {
        EXPECT_GE(span.wall_ns, 0);  // Open spans are clamped, not -1.
      }
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true);
  reader.join();
  root.End();
  EXPECT_EQ(trace->Spans().size(), 1u + kThreads * 200);
  tracer.Finish(std::move(trace));
  ASSERT_EQ(tracer.Recent().size(), 1u);
  EXPECT_EQ(tracer.Recent()[0].spans.size(), 1u + kThreads * 200);
}

TEST_F(ObsConcurrencyTest, EnableToggleDuringWrites) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter(kQueryQueriesTotal);
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      SetEnabled(false);
      SetEnabled(true);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) counter.Add();
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  toggler.join();
  SetEnabled(true);
  // Some adds may have been dropped while disabled — but never invented.
  EXPECT_LE(counter.Value(), 40000);
  EXPECT_GE(counter.Value(), 0);
}

}  // namespace
}  // namespace obs
}  // namespace modelardb
