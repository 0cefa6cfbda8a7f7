// Crash harness for the durability contract (DESIGN.md §3g, ISSUE PR 7).
//
// Two kinds of rounds, both seeded and both ending in reopen-and-verify:
//
//   kill -9   A forked child ingests deterministic segments into a
//             SegmentStore under WalSyncPolicy::kEveryBlock and reports an
//             "ACK n" line on the pipe after every OK Flush() — n segments
//             are durable by the WAL contract. The parent SIGKILLs the
//             child at a seeded point, drains the pipe, reopens the store
//             and requires (a) Open succeeds, (b) the store serves exactly
//             the first M deterministic segments for some M >= the last
//             acknowledged n, (c) every served segment is byte-identical
//             to what was ingested.
//
//   fault     The same ingest loop in-process under a FaultInjectionEnv
//             with one seeded fault (failed/short append, failed sync, or
//             a sync cut via drop_writes_after) followed by
//             SimulateCrash(). Reopen-and-verify as above, plus each round
//             is run twice with the same seed and every recovery decision
//             (salvage vs corruption, blocks replayed, quarantined bytes,
//             post-recovery log bytes) must reproduce bit-identically.
//
// Usage: crash_writer [--rounds=N] [--seed=S] [--dir=PATH] [--slab]
//                     [--bundle]
// Exit 0 only if every round passes. On platforms without fork/kill it
// prints a loud SKIP and exits 0 so CI stays green but honest.
//
// --slab runs the same rounds with slab checkpoints every 3 flushes
// (storage/slab_file.h), small sealed blocks, and a seeded put order in
// which about one segment in eight arrives up to eight flushes late — so
// it lands in a block that is already sealed and checkpointed, and kills
// and faults land inside that block's rewrite and inside the checkpoint
// after it, as well as everywhere across the checkpoint pipeline (mid data
// sync, mid root flip, between the flip and the next WAL append). The
// durability contract is unchanged (a checkpoint that dies leaves the
// previous root in charge and the WAL replays the rest); the verifier
// checks the recovered set against the puts acknowledged in that seeded
// order. Fault rounds additionally require the post-recovery slab file to
// reproduce bit-identically across same-seed runs.
//
// --bundle runs a single diagnostics-bundle round instead: the forked
// child installs obs::InstallCrashHandler, ingests with slab checkpoints
// and SIGABRTs itself from inside a checkpoint phase hook; the parent
// asserts a well-formed crash bundle (header, signal, in-flight
// checkpoint_phase flight-recorder events, end marker) landed on disk.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/baselines/columnar_store.h"
#include "core/models/pmc_mean.h"
#include "obs/bundle.h"
#include "storage/segment_store.h"
#include "storage/wal.h"
#include "util/buffer.h"
#include "util/fault_env.h"
#include "util/random.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define MODELARDB_HAS_FORK 1
#else
#define MODELARDB_HAS_FORK 0
#endif

namespace modelardb {
namespace {

constexpr int kMaxSegments = 4000;
constexpr int kFlushEvery = 20;

// --slab: every round ingests with slab checkpoints every 3 flushes.
// A file-scope flag so the forked kill-round child inherits it.
bool g_slab_mode = false;
// --slab: segments per sealed block, small so late puts split full ones.
constexpr size_t kSlabBlockSize = 32;

// The store options every round writes and reopens with.
SegmentStoreOptions StoreOptions(const std::string& dir) {
  SegmentStoreOptions options;
  options.directory = dir;
  options.wal_sync_policy = WalSyncPolicy::kEveryBlock;
  // Only explicit Flush() writes blocks, so the ACK watermark is exact.
  options.bulk_write_size = static_cast<size_t>(kMaxSegments) + 1;
  if (g_slab_mode) {
    options.slab_checkpoint_every_n_flushes = 3;
    options.block_size = kSlabBlockSize;
  }
  return options;
}

// The order a round puts segments 0..n-1 in: ascending, except that in
// --slab mode about one in eight is deferred by one to eight flushes.
std::vector<int> PutOrder(uint64_t seed, int n) {
  std::vector<std::pair<int64_t, int>> keyed;
  Random rng(seed ^ 0x5eedULL);
  for (int i = 0; i < n; ++i) {
    int64_t key = i;
    if (g_slab_mode && rng.NextBelow(8) == 0) {
      key += kFlushEvery * (1 + static_cast<int64_t>(rng.NextBelow(8)));
    }
    keyed.emplace_back(key, i);
  }
  std::stable_sort(keyed.begin(), keyed.end());
  std::vector<int> order;
  for (const auto& [key, i] : keyed) order.push_back(i);
  return order;
}

// The i-th segment of the deterministic workload. Content is a pure
// function of i so the verifier can regenerate the expected bytes without
// any channel from the crashed writer.
Segment MakeSegment(int i) {
  Segment s;
  s.gid = 1;
  s.start_time = static_cast<Timestamp>(i) * 1000;
  s.end_time = s.start_time + 900;
  s.si = 100;
  s.mid = kMidPmcMean;
  s.error_bound_pct = 0.0f;
  float value = 0.25f + 1.5f * static_cast<float>(i);
  s.min_value = value;
  s.max_value = value;
  s.parameters.resize(sizeof(float));
  std::memcpy(s.parameters.data(), &value, sizeof(float));
  return s;
}

std::vector<uint8_t> SerializeSegment(const Segment& s) {
  BufferWriter writer;
  s.SerializeTo(&writer);
  return writer.Finish();
}

// Reopens `dir` and checks the acknowledged set: Open must succeed and
// the store must serve exactly the segments of the first M puts of
// `order`, for some M >= min_acked, in EndTime order and byte-identical.
// Returns M, or -1 on failure (with a diagnostic).
int64_t ReopenAndVerify(const std::string& dir, const std::vector<int>& order,
                        int64_t min_acked, RecoveryInfo* info_out = nullptr) {
  auto store_or = SegmentStore::Open(StoreOptions(dir));
  if (!store_or.ok()) {
    std::fprintf(stderr, "FAIL: reopen of %s: %s\n", dir.c_str(),
                 store_or.status().ToString().c_str());
    return -1;
  }
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  if (info_out != nullptr) *info_out = store->recovery_info();

  std::vector<Segment> served;
  Status s = store->Scan(SegmentFilter{}, [&](const Segment& seg) {
    served.push_back(seg);
    return Status::OK();
  });
  if (!s.ok()) {
    std::fprintf(stderr, "FAIL: scan of %s: %s\n", dir.c_str(),
                 s.ToString().c_str());
    return -1;
  }
  const int64_t m = static_cast<int64_t>(served.size());
  if (m < min_acked || m > static_cast<int64_t>(order.size())) {
    std::fprintf(stderr,
                 "FAIL: %s serves %" PRId64 " segments but %" PRId64
                 " were acknowledged durable\n",
                 dir.c_str(), m, min_acked);
    return -1;
  }
  std::vector<int> expected(order.begin(), order.begin() + m);
  std::sort(expected.begin(), expected.end());
  for (int64_t i = 0; i < m; ++i) {
    if (SerializeSegment(served[i]) !=
        SerializeSegment(MakeSegment(expected[i]))) {
      std::fprintf(stderr,
                   "FAIL: %s serves segment %" PRId64
                   " where the acknowledged set has segment %d\n",
                   dir.c_str(), i, expected[i]);
      return -1;
    }
  }
  return m;
}

#if MODELARDB_HAS_FORK

// Child body: ingest with per-flush durability, ACKing each durable
// watermark on `fd`. Never returns.
[[noreturn]] void RunChild(const std::string& dir,
                          const std::vector<int>& order, int fd) {
  auto store_or = SegmentStore::Open(StoreOptions(dir));
  if (!store_or.ok()) _exit(2);
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  for (int i = 0; i < kMaxSegments; ++i) {
    if (!store->Put(MakeSegment(order[i])).ok()) _exit(3);
    if ((i + 1) % kFlushEvery == 0) {
      if (!store->Flush().ok()) _exit(4);
      // kEveryBlock: the flush that just returned OK is on disk. Anything
      // the parent reads from the pipe is a durable lower bound.
      dprintf(fd, "ACK %d\n", i + 1);
    }
  }
  if (!store->Flush().ok()) _exit(4);
  dprintf(fd, "ACK %d\n", kMaxSegments);
  _exit(0);
}

bool RunKillRound(int round, uint64_t seed, const std::string& dir) {
  Random rng(seed);
  const std::vector<int> order = PutOrder(seed, kMaxSegments);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return false;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    RunChild(dir, order, fds[1]);
  }
  close(fds[1]);

  // Kill after a seeded number of ACKs plus a seeded dally, so the SIGKILL
  // lands everywhere from "mid first block" to "mid byte of block N".
  const int64_t target_acks = 1 + static_cast<int64_t>(rng.NextBelow(40));
  const useconds_t dally =
      static_cast<useconds_t>(rng.NextBelow(5000));  // Up to 5ms.
  FILE* in = fdopen(fds[0], "r");
  int64_t last_ack = 0;
  int64_t acks = 0;
  char line[64];
  while (acks < target_acks && std::fgets(line, sizeof(line), in)) {
    long n = 0;
    if (std::sscanf(line, "ACK %ld", &n) == 1) {
      last_ack = n;
      ++acks;
    }
  }
  usleep(dally);
  kill(pid, SIGKILL);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
    std::fprintf(stderr, "FAIL: child writer exited with %d before the kill\n",
                 WEXITSTATUS(wstatus));
    fclose(in);
    return false;
  }
  // ACKs already in the pipe were written after durable flushes too.
  while (std::fgets(line, sizeof(line), in)) {
    long n = 0;
    if (std::sscanf(line, "ACK %ld", &n) == 1) last_ack = n;
  }
  fclose(in);

  RecoveryInfo info;
  const int64_t served = ReopenAndVerify(dir, order, last_ack, &info);
  if (served < 0) return false;
  std::printf("crash_writer: kill round %d: killed at ack %" PRId64
              ", served %" PRId64 " segments%s\n",
              round, last_ack, served, info.torn_tail ? " (tail salvaged)" : "");
  return true;
}

// Bundle round: a child installs the crash handler and aborts from inside
// a slab-checkpoint phase hook; the parent validates the bundle file.
[[noreturn]] void RunBundleChild(const std::string& dir) {
  obs::InstallCrashHandler(dir);
  SegmentStoreOptions options;
  options.directory = dir + "/store";
  options.wal_sync_policy = WalSyncPolicy::kEveryBlock;
  options.bulk_write_size = static_cast<size_t>(kMaxSegments) + 1;
  options.slab_checkpoint_every_n_flushes = 2;
  // Abort mid-checkpoint, after a phase event has been recorded: the
  // bundle must show the in-flight checkpoint in its event ring.
  int phases_seen = 0;
  options.checkpoint_phase_hook = [&phases_seen](const char* phase) {
    if (std::strcmp(phase, "stage_group") == 0 && ++phases_seen == 1) {
      std::abort();
    }
  };
  auto store_or = SegmentStore::Open(options);
  if (!store_or.ok()) _exit(2);
  std::unique_ptr<SegmentStore> store = std::move(*store_or);
  for (int i = 0; i < kMaxSegments; ++i) {
    if (!store->Put(MakeSegment(i)).ok()) _exit(3);
    if ((i + 1) % kFlushEvery == 0 && !store->Flush().ok()) _exit(4);
  }
  _exit(5);  // The hook should have aborted long before the workload ends.
}

bool RunBundleRound(const std::string& dir) {
  std::filesystem::create_directories(dir);
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) RunBundleChild(dir);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGABRT) {
    std::fprintf(stderr,
                 "FAIL: bundle child did not die of SIGABRT (wstatus=%d)\n",
                 wstatus);
    return false;
  }

  std::string bundle_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("crash_bundle_", 0) == 0) bundle_path = entry.path();
  }
  if (bundle_path.empty()) {
    std::fprintf(stderr, "FAIL: no crash_bundle_*.txt written in %s\n",
                 dir.c_str());
    return false;
  }
  FILE* f = std::fopen(bundle_path.c_str(), "r");  // modelarlint:allow(io-boundary) verifying the crash bundle the signal handler wrote without Env
  if (f == nullptr) {
    std::perror("fopen bundle");
    return false;
  }
  std::string contents;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {  // modelarlint:allow(io-boundary) same: reading the handler-written bundle
    contents.append(chunk, n);
  }
  std::fclose(f);

  struct Check {
    const char* what;
    const char* needle;
  } checks[] = {
      {"header", "MODELARDB DIAGNOSTICS BUNDLE v1"},
      {"signal line", "signal=6"},
      {"events section", "== events =="},
      {"in-flight checkpoint begin", "kind=checkpoint_begin"},
      {"in-flight checkpoint phase", "kind=checkpoint_phase"},
      {"staging phase detail", "detail=stage_group"},
      {"metrics section", "== metrics =="},
      {"end marker", "== end of bundle =="},
  };
  for (const Check& check : checks) {
    if (contents.find(check.needle) == std::string::npos) {
      std::fprintf(stderr, "FAIL: bundle %s is missing its %s (\"%s\")\n",
                   bundle_path.c_str(), check.what, check.needle);
      return false;
    }
  }
  std::printf("crash_writer: bundle round: %zu-byte bundle at %s is "
              "well-formed\n",
              contents.size(), bundle_path.c_str());
  return true;
}

#endif  // MODELARDB_HAS_FORK

// What one fault round observed; two same-seed runs must compare equal.
struct FaultRoundResult {
  bool ok = false;
  int64_t acked = 0;
  int64_t served = 0;
  int64_t blocks_replayed = 0;
  bool torn_tail = false;
  int64_t quarantined_bytes = 0;
  std::vector<uint8_t> log_bytes;   // Post-recovery segments.log contents.
  std::vector<uint8_t> slab_bytes;  // Post-recovery segments.slab (--slab).

  bool operator==(const FaultRoundResult&) const = default;
};

FaultRoundResult RunFaultRound(uint64_t seed, const std::string& dir) {
  FaultRoundResult result;
  Random rng(seed);
  FaultInjectionEnv::Options fault_options;
  fault_options.seed = seed;
  const int64_t fault_op = 2 + static_cast<int64_t>(rng.NextBelow(120));
  switch (rng.NextBelow(4)) {
    case 0: fault_options.fail_append_at = fault_op; break;
    case 1: fault_options.short_write_at = fault_op; break;
    case 2: fault_options.fail_sync_at = fault_op; break;
    default: fault_options.drop_writes_after = fault_op; break;
  }
  FaultInjectionEnv env(Env::Default(), fault_options);
  const std::vector<int> order = PutOrder(seed, 600);

  int64_t acked = 0;
  {
    SegmentStoreOptions options = StoreOptions(dir);
    options.env = &env;
    auto store_or = SegmentStore::Open(options);
    if (!store_or.ok()) {
      std::fprintf(stderr, "FAIL: fault open of %s: %s\n", dir.c_str(),
                   store_or.status().ToString().c_str());
      return result;
    }
    std::unique_ptr<SegmentStore> store = std::move(*store_or);
    for (int i = 0; i < 600; ++i) {
      if (!store->Put(MakeSegment(order[i])).ok()) break;
      if ((i + 1) % kFlushEvery == 0) {
        if (!store->Flush().ok()) break;  // Writer poisoned from here on.
        // drop_writes_after acknowledges appends and syncs without
        // forwarding a byte (a lying disk): an OK flush is a durable
        // watermark only while no fault has fired yet.
        if (env.faults_injected() == 0) acked = i + 1;
      }
    }
    // The store (and its fd) must be gone before the power cut: a real
    // crash never runs destructors.
  }
  if (!env.SimulateCrash().ok()) {
    std::fprintf(stderr, "FAIL: SimulateCrash on %s\n", dir.c_str());
    return result;
  }

  RecoveryInfo info;
  const int64_t served = ReopenAndVerify(dir, order, acked, &info);
  if (served < 0) return result;

  auto log_bytes = Env::Default()->ReadFileBytes(dir + "/segments.log");
  if (g_slab_mode) {
    auto slab_bytes = Env::Default()->ReadFileBytes(dir + "/segments.slab");
    if (slab_bytes.ok()) result.slab_bytes = std::move(*slab_bytes);
  }
  result.ok = true;
  result.acked = acked;
  result.served = served;
  result.blocks_replayed = info.blocks_replayed;
  result.torn_tail = info.torn_tail;
  result.quarantined_bytes = info.quarantined_bytes;
  if (log_bytes.ok()) result.log_bytes = std::move(*log_bytes);
  return result;
}

// What one columnar fault round observed; same-seed runs must compare
// equal. The columnar commit log was the last store writing around the
// Env boundary (a bare ofstream, invisible to fault injection); these
// rounds exist so it can never regress to that.
struct ColumnarRoundResult {
  bool ok = false;
  int64_t accepted = 0;   // Points accepted before the first error.
  bool finish_ok = false;
  int64_t blocks = 0;     // Valid WAL blocks readable post-crash.
  bool torn_tail = false;
  std::vector<uint8_t> log_bytes;  // Post-crash columnar.log contents.

  bool operator==(const ColumnarRoundResult&) const = default;
};

ColumnarRoundResult RunColumnarFaultRound(uint64_t seed,
                                          const std::string& dir) {
  ColumnarRoundResult result;
  Random rng(seed);
  FaultInjectionEnv::Options fault_options;
  fault_options.seed = seed;
  const int64_t fault_op = 1 + static_cast<int64_t>(rng.NextBelow(40));
  switch (rng.NextBelow(4)) {
    case 0: fault_options.fail_append_at = fault_op; break;
    case 1: fault_options.short_write_at = fault_op; break;
    case 2: fault_options.fail_sync_at = fault_op; break;
    default: fault_options.drop_writes_after = fault_op; break;
  }
  FaultInjectionEnv env(Env::Default(), fault_options);

  {
    ColumnarStoreOptions options;
    options.directory = dir;
    options.env = &env;
    options.wal_sync_policy = WalSyncPolicy::kEveryBlock;
    options.rows_per_group = 16;  // Small groups: many WAL appends.
    auto store_or = ColumnarStore::Open(options);
    if (!store_or.ok()) {
      std::fprintf(stderr, "FAIL: columnar open of %s: %s\n", dir.c_str(),
                   store_or.status().ToString().c_str());
      return result;
    }
    std::unique_ptr<ColumnarStore> store = std::move(*store_or);
    for (int i = 0; i < 400; ++i) {
      DataPoint point{static_cast<Tid>(1 + (i & 1)),
                      1000 + 100 * static_cast<Timestamp>(i),
                      0.5f * static_cast<float>(i % 7)};
      if (!store->Append(point).ok()) break;  // Writer poisoned from here.
      result.accepted = i + 1;
    }
    result.finish_ok = store->FinishIngest().ok();
    // Dropped without a clean close: a crash never runs destructors.
  }
  if (!env.SimulateCrash().ok()) {
    std::fprintf(stderr, "FAIL: SimulateCrash on %s\n", dir.c_str());
    return result;
  }

  // The surviving log must parse as WAL blocks with at worst a torn tail
  // — interior corruption would mean the store kept appending past a
  // failed write, which the poisoned WalWriter forbids.
  auto bytes = Env::Default()->ReadFileBytes(dir + "/columnar.log");
  if (bytes.ok()) {
    auto read = ReadWalBlocks(bytes->data(), bytes->size(),
                              dir + "/columnar.log");
    if (!read.ok()) {
      std::fprintf(stderr, "FAIL: columnar log has interior corruption: %s\n",
                   read.status().ToString().c_str());
      return result;
    }
    result.blocks = static_cast<int64_t>(read->blocks.size());
    result.torn_tail = read->torn_tail;
    result.log_bytes = std::move(*bytes);
  }
  result.ok = true;
  return result;
}

bool RunFaultRoundPair(int round, uint64_t seed, const std::string& base_dir) {
  const std::string dir_a = base_dir + "/fault_" + std::to_string(round) + "_a";
  const std::string dir_b = base_dir + "/fault_" + std::to_string(round) + "_b";
  std::filesystem::create_directories(dir_a);
  std::filesystem::create_directories(dir_b);
  FaultRoundResult a = RunFaultRound(seed, dir_a);
  if (!a.ok) return false;
  FaultRoundResult b = RunFaultRound(seed, dir_b);
  if (!b.ok) return false;
  if (!(a == b)) {
    std::fprintf(stderr,
                 "FAIL: fault round %d is not deterministic for seed %" PRIu64
                 " (a: acked=%" PRId64 " served=%" PRId64 " blocks=%" PRId64
                 " torn=%d quarantined=%" PRId64 "; b: acked=%" PRId64
                 " served=%" PRId64 " blocks=%" PRId64 " torn=%d"
                 " quarantined=%" PRId64 ")\n",
                 round, seed, a.acked, a.served, a.blocks_replayed,
                 a.torn_tail ? 1 : 0, a.quarantined_bytes, b.acked, b.served,
                 b.blocks_replayed, b.torn_tail ? 1 : 0, b.quarantined_bytes);
    return false;
  }
  // The columnar commit log rides the same round with a derived seed so
  // its fault schedule is independent of the segment store's.
  const uint64_t columnar_seed = seed ^ 0x9e3779b97f4a7c15ULL;
  ColumnarRoundResult ca =
      RunColumnarFaultRound(columnar_seed, dir_a + "/columnar");
  if (!ca.ok) return false;
  ColumnarRoundResult cb =
      RunColumnarFaultRound(columnar_seed, dir_b + "/columnar");
  if (!cb.ok) return false;
  if (!(ca == cb)) {
    std::fprintf(stderr,
                 "FAIL: columnar fault round %d is not deterministic for "
                 "seed %" PRIu64 " (a: accepted=%" PRId64 " finish=%d"
                 " blocks=%" PRId64 " torn=%d bytes=%zu; b: accepted=%" PRId64
                 " finish=%d blocks=%" PRId64 " torn=%d bytes=%zu)\n",
                 round, columnar_seed, ca.accepted, ca.finish_ok ? 1 : 0,
                 ca.blocks, ca.torn_tail ? 1 : 0, ca.log_bytes.size(),
                 cb.accepted, cb.finish_ok ? 1 : 0, cb.blocks,
                 cb.torn_tail ? 1 : 0, cb.log_bytes.size());
    return false;
  }
  std::printf("crash_writer: fault round %d: acked %" PRId64 ", served %" PRId64
              " segments%s; columnar accepted %" PRId64 ", %" PRId64
              " blocks survive%s, deterministic\n",
              round, a.acked, a.served, a.torn_tail ? " (tail salvaged)" : "",
              ca.accepted, ca.blocks, ca.torn_tail ? " (tail torn)" : "");
  return true;
}

int Run(int argc, char** argv) {
  int rounds = 25;
  uint64_t seed = 42;
  std::string dir;
  bool bundle_mode = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--rounds=", 0) == 0) {
      rounds = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = arg.substr(6);
    } else if (arg == "--slab") {
      g_slab_mode = true;
    } else if (arg == "--bundle") {
      bundle_mode = true;
    } else {
      std::fprintf(stderr,
                   "usage: crash_writer [--rounds=N] [--seed=S] [--dir=PATH] "
                   "[--slab] [--bundle]\n");
      return 2;
    }
  }
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() /
           ("mdb_crash_" + std::to_string(::getpid())))
              .string();
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  if (bundle_mode) {
#if MODELARDB_HAS_FORK
    if (RunBundleRound(dir + "/bundle")) {
      std::filesystem::remove_all(dir);
      return 0;
    }
    std::fprintf(stderr, "crash_writer: FAILED (artifacts kept in %s)\n",
                 dir.c_str());
    return 1;
#else
    std::printf(
        "crash_writer: SKIP bundle round (no fork/kill on this platform)\n");
    return 0;
#endif
  }

  bool all_ok = true;
#if MODELARDB_HAS_FORK
  for (int r = 0; r < rounds && all_ok; ++r) {
    const std::string round_dir = dir + "/kill_" + std::to_string(r);
    std::filesystem::create_directories(round_dir);
    all_ok = RunKillRound(r, seed + static_cast<uint64_t>(r), round_dir);
  }
#else
  std::printf(
      "crash_writer: SKIP kill -9 rounds (no fork/kill on this platform)\n");
#endif
  for (int r = 0; r < rounds && all_ok; ++r) {
    all_ok = RunFaultRoundPair(r, seed * 1000003 + static_cast<uint64_t>(r),
                               dir);
  }

  if (all_ok) {
    std::filesystem::remove_all(dir);
    std::printf("crash_writer: all %d kill + %d fault rounds passed%s\n",
                MODELARDB_HAS_FORK ? rounds : 0, rounds,
                g_slab_mode ? " (slab checkpoints on)" : "");
    return 0;
  }
  std::fprintf(stderr, "crash_writer: FAILED (artifacts kept in %s)\n",
               dir.c_str());
  return 1;
}

}  // namespace
}  // namespace modelardb

int main(int argc, char** argv) { return modelardb::Run(argc, argv); }
