// Compiled-in catalog of every metric the system emits — the single
// source of truth for metric names. Instrumented code refers to metrics
// through the constants declared here (never string literals), docs and
// tests may mention the same names, and tools/ci.sh cross-checks that
// every `modelardb_<layer>_*` name referenced anywhere exists in this
// catalog.
//
// Naming convention: modelardb_<layer>_<name>[_total|_seconds]
//   <layer>  pool | ingest | store | query | cluster | decode | wal |
//            recovery | slab | event | health
//   _total   monotonically increasing counters
//   _seconds latency histograms (observed in seconds)
// Per-instance breakdowns (per model type, per group) use a single label,
// e.g. modelardb_ingest_segments{model="pmc_mean"}.

#ifndef MODELARDB_OBS_METRIC_NAMES_H_
#define MODELARDB_OBS_METRIC_NAMES_H_

#include <cstring>
#include <string_view>

namespace modelardb {
namespace obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

// X(identifier, "name", kind, "help")
#define MODELARDB_METRIC_CATALOG(X)                                          \
  X(kPoolQueueDepth, "modelardb_pool_queue_depth", kGauge,                   \
    "Tasks queued on the shared thread pool, not yet picked up")             \
  X(kPoolTasksTotal, "modelardb_pool_tasks_total", kCounter,                 \
    "Tasks executed by pool worker threads")                                 \
  X(kPoolTaskSeconds, "modelardb_pool_task_seconds", kHistogram,             \
    "Wall-clock run time of pool tasks")                                     \
  X(kPoolHelpStealsTotal, "modelardb_pool_help_steals_total", kCounter,      \
    "Group tasks run by a waiting thread (TaskGroup help-on-wait)")          \
  X(kIngestRowsTotal, "modelardb_ingest_rows_total", kCounter,               \
    "Sampling-instant rows delivered to group coordinators")                 \
  X(kIngestPointsTotal, "modelardb_ingest_points_total", kCounter,           \
    "Individual data points delivered to group coordinators")                \
  X(kIngestPointsPerSecond, "modelardb_ingest_points_per_second", kGauge,    \
    "Achieved rate of the most recent pipeline run")                         \
  X(kIngestPipelineRunsTotal, "modelardb_ingest_pipeline_runs_total",        \
    kCounter, "Completed RunPipeline invocations")                           \
  X(kIngestSegments, "modelardb_ingest_segments", kGauge,                    \
    "Segments emitted, by model type (label model)")                         \
  X(kIngestModelPoints, "modelardb_ingest_model_points", kGauge,             \
    "Data points represented, by model type (label model)")                  \
  X(kIngestCompressionRatio, "modelardb_ingest_compression_ratio", kGauge,   \
    "Raw point bytes / stored segment bytes (label gid for per-group)")      \
  X(kStorePutTotal, "modelardb_store_put_total", kCounter,                   \
    "Segments inserted into segment stores")                                 \
  X(kStoreFlushTotal, "modelardb_store_flush_total", kCounter,               \
    "Bulk writes of buffered segments to disk")                              \
  X(kStoreCowCopiesTotal, "modelardb_store_cow_copies_total", kCounter,      \
    "Copy-on-write group copies taken because a snapshot was live")          \
  X(kStoreBlockRebuildsTotal, "modelardb_store_block_rebuilds_total",        \
    kCounter, "Summary-index block rebuilds (out-of-order insert, replay)")  \
  X(kStoreScanBlocksSkippedTotal, "modelardb_store_scan_blocks_skipped_total", \
    kCounter, "Index blocks pruned by time fences across all scans")         \
  X(kStoreScanBlocksSummarizedTotal,                                         \
    "modelardb_store_scan_blocks_summarized_total", kCounter,                \
    "Index blocks answered wholly from summaries across all scans")          \
  X(kStoreScanBlocksScannedTotal, "modelardb_store_scan_blocks_scanned_total", \
    kCounter, "Index blocks delivered segment by segment across all scans")  \
  X(kStoreScanSegmentsTotal, "modelardb_store_scan_segments_total", kCounter, \
    "Segments delivered to scan callbacks across all scans")                 \
  X(kQueryQueriesTotal, "modelardb_query_queries_total", kCounter,           \
    "Queries executed over store partitions (a node or a cluster)")          \
  X(kQuerySeconds, "modelardb_query_seconds", kHistogram,                    \
    "End-to-end latency of queries")                                         \
  X(kQuerySegmentsDecodedTotal, "modelardb_query_segments_decoded_total",    \
    kCounter, "Segment decoders created on the query path")                  \
  X(kClusterSegmentsEmittedTotal, "modelardb_cluster_segments_emitted_total", \
    kCounter, "Segments emitted by coordinators during cluster ingestion")   \
  X(kClusterFlushesTotal, "modelardb_cluster_flushes_total", kCounter,       \
    "FlushAll invocations on the cluster engine")                            \
  X(kDecodeValuesSimdTotal, "modelardb_decode_values_simd_total", kCounter,  \
    "Values decoded through the dispatched SIMD kernel tier")                \
  X(kDecodeValuesScalarTotal, "modelardb_decode_values_scalar_total",        \
    kCounter, "Values decoded through the portable scalar tier")             \
  X(kDecodeFoldsSimdTotal, "modelardb_decode_folds_simd_total", kCounter,    \
    "Span elements folded through the dispatched SIMD aggregate kernels")    \
  X(kDecodeFoldsScalarTotal, "modelardb_decode_folds_scalar_total",          \
    kCounter, "Span elements folded through the scalar aggregate kernels")   \
  X(kWalAppendsTotal, "modelardb_wal_appends_total", kCounter,               \
    "WAL blocks appended (v2, checksummed) across all stores")               \
  X(kWalBytesTotal, "modelardb_wal_bytes_total", kCounter,                   \
    "Bytes appended to WALs, framing included")                              \
  X(kWalFsyncsTotal, "modelardb_wal_fsyncs_total", kCounter,                 \
    "Durability barriers (fdatasync) issued by WAL writers")                 \
  X(kWalGroupCommittedBlocksTotal,                                           \
    "modelardb_wal_group_committed_blocks_total", kCounter,                  \
    "WAL blocks made durable, counted at the sync that committed them")      \
  X(kRecoveryBlocksReplayedTotal, "modelardb_recovery_blocks_replayed_total", \
    kCounter, "Valid WAL blocks replayed during store opens")                \
  X(kRecoverySegmentsReplayedTotal,                                          \
    "modelardb_recovery_segments_replayed_total", kCounter,                  \
    "Segments reconstructed from WAL blocks during store opens")             \
  X(kRecoveryTornTailsTruncatedTotal,                                        \
    "modelardb_recovery_torn_tails_truncated_total", kCounter,               \
    "Torn WAL tails quarantined and truncated instead of failing Open")      \
  X(kRecoveryQuarantinedBytesTotal,                                          \
    "modelardb_recovery_quarantined_bytes_total", kCounter,                  \
    "Crash-debris bytes moved to .corrupt sidecars during recovery")         \
  X(kSlabMappedBytes, "modelardb_slab_mapped_bytes", kGauge,                 \
    "Bytes of slab files currently memory-mapped across all stores")         \
  X(kSlabRemapsTotal, "modelardb_slab_remaps_total", kCounter,               \
    "Slab remap-on-grow events (old mappings stay pinned until released)")   \
  X(kSlabCommitsTotal, "modelardb_slab_commits_total", kCounter,             \
    "Slab checkpoint commits (atomic root flips)")                           \
  X(kSlabCheckpointedBlocksTotal, "modelardb_slab_checkpointed_blocks_total", \
    kCounter, "Blocks staged into slab files by checkpoints")                \
  X(kSlabFreedBlocksTotal, "modelardb_slab_freed_blocks_total", kCounter,    \
    "Slab blocks freed for extent reuse (coalescing, index rewrites)")       \
  X(kSlabZeroCopyScanBytesTotal, "modelardb_slab_zero_copy_scan_bytes_total", \
    kCounter, "Cold bytes served to scans straight from the mapping")        \
  X(kSlabCopiedScanBytesTotal, "modelardb_slab_copied_scan_bytes_total",     \
    kCounter, "Cold bytes materialized into heap copies (merge fallback)")   \
  X(kWalSyncSeconds, "modelardb_wal_sync_seconds", kHistogram,               \
    "Latency of WAL durability barriers (fdatasync), per sync")              \
  X(kSlabCheckpointSeconds, "modelardb_slab_checkpoint_seconds", kHistogram, \
    "End-to-end latency of slab checkpoints (stage + commit)")               \
  X(kEventRecordsTotal, "modelardb_event_records_total", kCounter,           \
    "Structured events recorded into the flight-recorder ring")              \
  X(kEventBundleDumpsTotal, "modelardb_event_bundle_dumps_total", kCounter,  \
    "Diagnostics bundles written (on demand or on fatal signal)")            \
  X(kHealthStatus, "modelardb_health_status", kGauge,                        \
    "Watchdog verdict: 0 ok, 1 degraded, 2 stalled")                         \
  X(kHealthChecksTotal, "modelardb_health_checks_total", kCounter,           \
    "Health verdicts computed (watchdog ticks + HEALTH() queries)")          \
  X(kQuerySlowTotal, "modelardb_query_slow_total", kCounter,                 \
    "Queries exceeding the slow-query threshold, logged with their cost")

// Named constants: obs::kPoolTasksTotal == "modelardb_pool_tasks_total".
#define MODELARDB_DECLARE_METRIC_NAME(ident, name, kind, help) \
  inline constexpr const char ident[] = name;
MODELARDB_METRIC_CATALOG(MODELARDB_DECLARE_METRIC_NAME)
#undef MODELARDB_DECLARE_METRIC_NAME

struct MetricInfo {
  const char* name;
  MetricKind kind;
  const char* help;
};

inline constexpr MetricInfo kMetricCatalog[] = {
#define MODELARDB_METRIC_CATALOG_ENTRY(ident, name, kind, help) \
  {name, MetricKind::kind, help},
    MODELARDB_METRIC_CATALOG(MODELARDB_METRIC_CATALOG_ENTRY)
#undef MODELARDB_METRIC_CATALOG_ENTRY
};

inline constexpr size_t kMetricCatalogSize =
    sizeof(kMetricCatalog) / sizeof(kMetricCatalog[0]);

// Catalog lookup by base name (no label); null when unknown.
inline const MetricInfo* FindMetricInfo(std::string_view name) {
  for (const MetricInfo& info : kMetricCatalog) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

inline bool IsCatalogMetric(std::string_view name) {
  return FindMetricInfo(name) != nullptr;
}

}  // namespace obs
}  // namespace modelardb

#endif  // MODELARDB_OBS_METRIC_NAMES_H_
