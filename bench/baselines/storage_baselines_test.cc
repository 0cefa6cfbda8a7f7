#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "bench/baselines/columnar_store.h"
#include "bench/baselines/row_store.h"
#include "bench/baselines/tsm_store.h"
#include "util/random.h"

namespace modelardb {
namespace {

// Parameterized over store factories so every baseline satisfies the same
// contract.
struct StoreCase {
  const char* label;
  std::function<std::unique_ptr<DataPointStore>()> make;
  bool online;
};

// Without a printer gtest dumps the struct's raw bytes, pointers included,
// into each listed test name, so the names change on every run under ASLR.
void PrintTo(const StoreCase& store_case, std::ostream* os) {
  *os << store_case.label;
}

std::unique_ptr<DataPointStore> MakeRow() {
  return std::move(*RowStore::Open(RowStoreOptions{}));
}
std::unique_ptr<DataPointStore> MakeTsm() {
  return std::move(*TsmStore::Open(TsmStoreOptions{}));
}
std::unique_ptr<DataPointStore> MakeParquet() {
  ColumnarStoreOptions options;
  options.profile = ColumnarProfile::kParquetLike;
  return std::move(*ColumnarStore::Open(options));
}
std::unique_ptr<DataPointStore> MakeOrc() {
  ColumnarStoreOptions options;
  options.profile = ColumnarProfile::kOrcLike;
  return std::move(*ColumnarStore::Open(options));
}

class DataPointStoreContract : public ::testing::TestWithParam<StoreCase> {};

TEST_P(DataPointStoreContract, RoundTripsAllPoints) {
  auto store = GetParam().make();
  Random rng(1);
  std::map<Tid, std::map<Timestamp, Value>> original;
  for (Tid tid = 1; tid <= 3; ++tid) {
    for (int i = 0; i < 5000; ++i) {
      Value v = static_cast<Value>(rng.Uniform(-100, 100));
      Timestamp ts = i * 100;
      ASSERT_TRUE(store->Append({tid, ts, v}).ok());
      original[tid][ts] = v;
    }
  }
  ASSERT_TRUE(store->FinishIngest().ok());
  std::map<Tid, std::map<Timestamp, Value>> scanned;
  ASSERT_TRUE(store
                  ->Scan(DataPointFilter{},
                         [&](const DataPoint& p) {
                           scanned[p.tid][p.timestamp] = p.value;
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(scanned, original);
}

TEST_P(DataPointStoreContract, TidAndTimePushdown) {
  auto store = GetParam().make();
  for (Tid tid = 1; tid <= 4; ++tid) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(store->Append({tid, i * 100, static_cast<Value>(i)}).ok());
    }
  }
  ASSERT_TRUE(store->FinishIngest().ok());
  DataPointFilter filter;
  filter.tids = {2, 4};
  filter.min_time = 50000;
  filter.max_time = 59900;
  int count = 0;
  ASSERT_TRUE(store
                  ->Scan(filter,
                         [&](const DataPoint& p) {
                           EXPECT_TRUE(p.tid == 2 || p.tid == 4);
                           EXPECT_GE(p.timestamp, 50000);
                           EXPECT_LE(p.timestamp, 59900);
                           ++count;
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(count, 2 * 100);
}

TEST_P(DataPointStoreContract, OutOfOrderAppendRejected) {
  auto store = GetParam().make();
  ASSERT_TRUE(store->Append({1, 1000, 1.0f}).ok());
  EXPECT_FALSE(store->Append({1, 1000, 1.0f}).ok());
  EXPECT_FALSE(store->Append({1, 900, 1.0f}).ok());
  // Other series are independent.
  EXPECT_TRUE(store->Append({2, 900, 1.0f}).ok());
}

TEST_P(DataPointStoreContract, OnlineAnalyticsCapability) {
  auto store = GetParam().make();
  ASSERT_TRUE(store->Append({1, 0, 1.0f}).ok());
  EXPECT_EQ(store->SupportsOnlineAnalytics(), GetParam().online);
  int count = 0;
  Status s = store->Scan(DataPointFilter{}, [&](const DataPoint&) {
    ++count;
    return Status::OK();
  });
  if (GetParam().online) {
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(count, 1);  // Pending rows visible before any flush.
  } else {
    EXPECT_FALSE(s.ok());  // Write-once: not queryable until finished.
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, DataPointStoreContract,
    ::testing::Values(StoreCase{"row", MakeRow, true},
                      StoreCase{"tsm", MakeTsm, true},
                      StoreCase{"parquet", MakeParquet, false},
                      StoreCase{"orc", MakeOrc, false}),
    [](const ::testing::TestParamInfo<StoreCase>& info) {
      return info.param.label;
    });

TEST(StorageFootprintTest, ExpectedOrderingOnSmoothData) {
  // On smooth, regular data the paper's ordering must hold:
  // row store > columnar > TSM (Figs 14-15, excluding ModelarDB itself).
  std::filesystem::path base = std::filesystem::temp_directory_path() /
                               ("mdb_footprint_" + std::to_string(::getpid()));
  RowStoreOptions row_options;
  row_options.directory = (base / "row").string();
  TsmStoreOptions tsm_options;
  tsm_options.directory = (base / "tsm").string();
  ColumnarStoreOptions parquet_options;
  parquet_options.directory = (base / "parquet").string();

  auto row = *RowStore::Open(row_options);
  auto tsm = *TsmStore::Open(tsm_options);
  auto parquet = *ColumnarStore::Open(parquet_options);

  Random rng(7);
  double v = 100.0;
  for (int i = 0; i < 50000; ++i) {
    v += rng.Uniform(-0.01, 0.01);
    DataPoint p{1, i * 100, static_cast<Value>(v)};
    ASSERT_TRUE(row->Append(p).ok());
    ASSERT_TRUE(tsm->Append(p).ok());
    ASSERT_TRUE(parquet->Append(p).ok());
  }
  ASSERT_TRUE(row->FinishIngest().ok());
  ASSERT_TRUE(tsm->FinishIngest().ok());
  ASSERT_TRUE(parquet->FinishIngest().ok());

  EXPECT_GT(row->DiskBytes(), parquet->DiskBytes());
  EXPECT_GT(parquet->DiskBytes(), tsm->DiskBytes());
  std::filesystem::remove_all(base);
}

TEST(StorageFootprintTest, OrcRleWinsOnRepeatedValues) {
  auto parquet = MakeParquet();
  auto orc = MakeOrc();
  std::filesystem::path base = std::filesystem::temp_directory_path() /
                               ("mdb_rle_" + std::to_string(::getpid()));
  ColumnarStoreOptions parquet_options;
  parquet_options.directory = (base / "p").string();
  ColumnarStoreOptions orc_options;
  orc_options.profile = ColumnarProfile::kOrcLike;
  orc_options.directory = (base / "o").string();
  auto p = *ColumnarStore::Open(parquet_options);
  auto o = *ColumnarStore::Open(orc_options);
  for (int i = 0; i < 20000; ++i) {
    DataPoint point{1, i * 100, 42.0f};  // Constant signal.
    ASSERT_TRUE(p->Append(point).ok());
    ASSERT_TRUE(o->Append(point).ok());
  }
  ASSERT_TRUE(p->FinishIngest().ok());
  ASSERT_TRUE(o->FinishIngest().ok());
  EXPECT_LT(o->DiskBytes(), p->DiskBytes() / 10);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace modelardb
