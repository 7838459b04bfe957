#ifndef NNCELL_COMMON_METRICS_NAMES_H_
#define NNCELL_COMMON_METRICS_NAMES_H_

#include <cstddef>

// Single source of truth for every metric the system exports. A metric
// that is not listed here cannot be obtained from the registry (the lookup
// CHECK-fails), and tools/check_docs_links.sh cross-checks this table
// against docs/METRICS.md in both directions, so the documentation can
// never drift from the code.
//
// Naming convention: <subsystem>.<object>.<quantity>, lower_snake within
// segments. Subsystems mirror the source tree: storage, index (rstar/
// xtree), lp (lp/geom build pipeline), query (nncell query path).

namespace nncell {
namespace metrics {

enum class Kind { kCounter, kGauge, kHistogram };

struct MetricDef {
  const char* name;
  Kind kind;
  const char* unit;
  const char* help;
};

// --- storage -------------------------------------------------------------
inline constexpr char kPoolLogicalReads[] = "storage.pool.logical_reads";
inline constexpr char kPoolMisses[] = "storage.pool.misses";
inline constexpr char kPoolEvictions[] = "storage.pool.evictions";
inline constexpr char kPoolWritebacks[] = "storage.pool.writebacks";
inline constexpr char kPoolPinnedFrames[] = "storage.pool.pinned_frames";
inline constexpr char kFileReadPages[] = "storage.file.read_pages";
inline constexpr char kFileWritePages[] = "storage.file.write_pages";
inline constexpr char kFileReadBytes[] = "storage.file.read_bytes";
inline constexpr char kFileWriteBytes[] = "storage.file.write_bytes";
inline constexpr char kSnapshotSaves[] = "storage.snapshot.saves";
inline constexpr char kSnapshotSaveBytes[] = "storage.snapshot.save_bytes";
inline constexpr char kSnapshotLoads[] = "storage.snapshot.loads";
inline constexpr char kSnapshotLoadFailures[] =
    "storage.snapshot.load_failures";

// --- wal (durable insert/delete log) --------------------------------------
inline constexpr char kWalRecordsAppended[] = "wal.records.appended";
inline constexpr char kWalRecordsReplayed[] = "wal.records.replayed";
inline constexpr char kWalRecordsSkipped[] = "wal.records.skipped";
inline constexpr char kWalBytesAppended[] = "wal.bytes.appended";
inline constexpr char kWalFsyncs[] = "wal.log.fsyncs";
inline constexpr char kWalTailTruncations[] = "wal.log.tail_truncations";
inline constexpr char kWalCheckpoints[] = "wal.log.checkpoints";

// --- index (R*/X-tree) ---------------------------------------------------
inline constexpr char kIndexNodeVisits[] = "index.tree.node_visits";
inline constexpr char kIndexLeafVisits[] = "index.tree.leaf_visits";
inline constexpr char kIndexNodeSplits[] = "index.tree.node_splits";
inline constexpr char kIndexSupernodeEvents[] = "index.tree.supernode_events";
inline constexpr char kIndexMaintCellsRecomputed[] =
    "index.maint.cells_recomputed";
inline constexpr char kIndexMaintCellsRewritten[] =
    "index.maint.cells_rewritten";

// --- lp (cell-approximation build pipeline) ------------------------------
inline constexpr char kLpRuns[] = "lp.solver.runs";
inline constexpr char kLpIterations[] = "lp.solver.iterations";
inline constexpr char kLpFailures[] = "lp.solver.failures";
inline constexpr char kLpConstraintRows[] = "lp.rows.entered";
inline constexpr char kLpFacesSkipped[] = "lp.faces.skipped";
inline constexpr char kLpFacesWarm[] = "lp.faces.warm";
inline constexpr char kLpFacesCold[] = "lp.faces.cold";

// --- query (NN-cell query path) -------------------------------------------
inline constexpr char kQueryCount[] = "query.nn.count";
inline constexpr char kQueryCandidates[] = "query.nn.candidates";
inline constexpr char kQueryDistanceComputations[] =
    "query.nn.distance_computations";
inline constexpr char kQueryFallbacks[] = "query.nn.fallbacks";
inline constexpr char kQueryCandidatesPerQuery[] =
    "query.nn.candidates_per_query";

// --- kernels (dispatched SIMD layer) ---------------------------------------
inline constexpr char kKernelsDispatch[] = "kernels.dispatch";

// --- server (always-on query service) -------------------------------------
inline constexpr char kServerConnectionsOpened[] = "server.connections.opened";
inline constexpr char kServerConnectionsClosed[] = "server.connections.closed";
inline constexpr char kServerRequestsAccepted[] = "server.requests.accepted";
inline constexpr char kServerRequestsCompleted[] = "server.requests.completed";
inline constexpr char kServerRequestsRejected[] = "server.requests.rejected";
inline constexpr char kServerFramesMalformed[] = "server.frames.malformed";
inline constexpr char kServerBatchesDispatched[] = "server.batches.dispatched";
inline constexpr char kServerBatchSize[] = "server.batch.size";
inline constexpr char kServerQueueDepth[] = "server.queue.depth";
inline constexpr char kServerLatencyQueryUs[] = "server.latency.query_us";
inline constexpr char kServerLatencyWriteUs[] = "server.latency.write_us";

// --- shard (sharded multi-index / scatter-gather layer) --------------------
inline constexpr char kShardCount[] = "shard.count";
inline constexpr char kShardEpoch[] = "shard.epoch";
inline constexpr char kShardQueryFanout[] = "shard.query.fanout";
inline constexpr char kShardQueryProbes[] = "shard.query.probes";
inline constexpr char kShardQueryPruned[] = "shard.query.pruned";
inline constexpr char kShardRebalanceEvents[] = "shard.rebalance.events";
inline constexpr char kShardRebalanceMovedPoints[] =
    "shard.rebalance.moved_points";
inline constexpr char kShardRecoveryDegraded[] =
    "shard.recovery.degraded_shards";

// Approximate query tier (docs/APPROXIMATE.md).
inline constexpr char kApproxQueryCount[] = "approx.query.count";
inline constexpr char kApproxTerminatedEarly[] =
    "approx.query.terminated_early";
inline constexpr char kApproxTruncated[] = "approx.query.truncated";
inline constexpr char kApproxLeafVisits[] = "approx.query.leaf_visits";
inline constexpr char kApproxLeafVisitsPerQuery[] =
    "approx.query.leaf_visits_per_query";

// The registry registers exactly this set at construction, so a snapshot
// always covers every metric (zeros included) and is deterministic.
inline constexpr MetricDef kMetricDefs[] = {
    {kPoolLogicalReads, Kind::kCounter, "pages",
     "BufferPool::Fetch/FetchMutable calls (cache hits = logical - misses)"},
    {kPoolMisses, Kind::kCounter, "pages",
     "buffer-pool cache misses that went to the PageFile"},
    {kPoolEvictions, Kind::kCounter, "frames",
     "LRU frames recycled to serve a miss"},
    {kPoolWritebacks, Kind::kCounter, "pages",
     "dirty frames written back on eviction or Flush"},
    {kPoolPinnedFrames, Kind::kGauge, "frames",
     "currently pinned buffer-pool frames (all pools)"},
    {kFileReadPages, Kind::kCounter, "pages",
     "PageFile::Read calls (simulated disk read syscalls)"},
    {kFileWritePages, Kind::kCounter, "pages",
     "PageFile::Write calls (simulated disk write syscalls)"},
    {kFileReadBytes, Kind::kCounter, "bytes", "bytes read from PageFiles"},
    {kFileWriteBytes, Kind::kCounter, "bytes", "bytes written to PageFiles"},
    {kSnapshotSaves, Kind::kCounter, "snapshots",
     "checksummed index snapshots written (atomic temp+rename)"},
    {kSnapshotSaveBytes, Kind::kCounter, "bytes",
     "bytes written into snapshot images"},
    {kSnapshotLoads, Kind::kCounter, "snapshots",
     "snapshot images loaded successfully"},
    {kSnapshotLoadFailures, Kind::kCounter, "snapshots",
     "snapshot loads rejected (truncation, checksum, version skew)"},
    {kWalRecordsAppended, Kind::kCounter, "records",
     "insert/delete records appended to the write-ahead log"},
    {kWalRecordsReplayed, Kind::kCounter, "records",
     "WAL records re-applied during recovery"},
    {kWalRecordsSkipped, Kind::kCounter, "records",
     "WAL records skipped at recovery (already covered by the snapshot)"},
    {kWalBytesAppended, Kind::kCounter, "bytes",
     "bytes appended to the write-ahead log (headers included)"},
    {kWalFsyncs, Kind::kCounter, "syncs",
     "fsync calls issued by the WAL group-commit policy"},
    {kWalTailTruncations, Kind::kCounter, "events",
     "torn WAL tails truncated during recovery"},
    {kWalCheckpoints, Kind::kCounter, "checkpoints",
     "Checkpoint() folds of the WAL into a fresh snapshot"},
    {kIndexNodeVisits, Kind::kCounter, "nodes",
     "tree nodes visited by point/range/leaf-page queries"},
    {kIndexLeafVisits, Kind::kCounter, "nodes",
     "leaf nodes among the visited nodes"},
    {kIndexNodeSplits, Kind::kCounter, "splits",
     "node splits executed on the insert path"},
    {kIndexSupernodeEvents, Kind::kCounter, "events",
     "X-tree supernode-growth decisions (split avoided)"},
    {kIndexMaintCellsRecomputed, Kind::kCounter, "cells",
     "existing cells recomputed by Insert/Delete maintenance"},
    {kIndexMaintCellsRewritten, Kind::kCounter, "cells",
     "recomputed cells whose rectangles changed and were rewritten"},
    {kLpRuns, Kind::kCounter, "solves",
     "LP face solves attempted (2d per cell minus certified skips)"},
    {kLpIterations, Kind::kCounter, "iterations",
     "active-set solver iterations across all face solves"},
    {kLpFailures, Kind::kCounter, "faces",
     "faces that fell back to the data-space bound"},
    {kLpConstraintRows, Kind::kCounter, "rows",
     "bisector rows that entered LP systems"},
    {kLpFacesSkipped, Kind::kCounter, "faces",
     "faces certified by the axis ray-shoot (0 LP iterations)"},
    {kLpFacesWarm, Kind::kCounter, "faces",
     "face solves warm-started at the ray hit point"},
    {kLpFacesCold, Kind::kCounter, "faces",
     "face solves started from the cold start"},
    {kQueryCount, Kind::kCounter, "queries",
     "NN point queries answered by NNCellIndex::Query"},
    {kQueryCandidates, Kind::kCounter, "candidates",
     "candidate cells returned by the index point query (paper: candidate "
     "set size)"},
    {kQueryDistanceComputations, Kind::kCounter, "distances",
     "exact distance evaluations during NN queries (incl. fallback scans)"},
    {kQueryFallbacks, Kind::kCounter, "queries",
     "queries that fell back to a sequential scan (numeric edge)"},
    {kQueryCandidatesPerQuery, Kind::kHistogram, "candidates",
     "distribution of the candidate-set size per NN query"},
    {kKernelsDispatch, Kind::kGauge, "level",
     "active SIMD dispatch level (0 = scalar, 1 = avx2, 2 = neon); "
     "process-constant, restored across ResetAll"},
    {kServerConnectionsOpened, Kind::kCounter, "connections",
     "client connections accepted by the query server"},
    {kServerConnectionsClosed, Kind::kCounter, "connections",
     "client connections whose reader exited (EOF, fault, or drain)"},
    {kServerRequestsAccepted, Kind::kCounter, "requests",
     "well-formed request frames admitted or rejected with a status"},
    {kServerRequestsCompleted, Kind::kCounter, "requests",
     "requests executed and answered by the dispatcher"},
    {kServerRequestsRejected, Kind::kCounter, "requests",
     "requests refused with RETRY_LATER or SHUTTING_DOWN"},
    {kServerFramesMalformed, Kind::kCounter, "frames",
     "frames dropped for bad magic/version/CRC/length/type"},
    {kServerBatchesDispatched, Kind::kCounter, "batches",
     "QueryBatch calls issued by the dispatcher micro-batcher"},
    {kServerBatchSize, Kind::kHistogram, "queries",
     "distribution of queries coalesced per dispatched batch"},
    {kServerQueueDepth, Kind::kGauge, "requests",
     "requests currently waiting in the admission queue"},
    {kServerLatencyQueryUs, Kind::kHistogram, "microseconds",
     "enqueue-to-response latency of QUERY/QUERY_BATCH requests"},
    {kServerLatencyWriteUs, Kind::kHistogram, "microseconds",
     "enqueue-to-response latency of INSERT/DELETE/CHECKPOINT requests"},
    {kShardCount, Kind::kGauge, "shards",
     "shards of the most recently opened sharded index"},
    {kShardEpoch, Kind::kGauge, "epoch",
     "routing-manifest epoch of the most recently opened sharded index"},
    {kShardQueryFanout, Kind::kHistogram, "shards",
     "distribution of shards probed per scatter-gather query"},
    {kShardQueryProbes, Kind::kCounter, "probes",
     "per-shard queries issued by the scatter-gather layer"},
    {kShardQueryPruned, Kind::kCounter, "shards",
     "shards skipped by the slab-distance bound during scatter-gather"},
    {kShardRebalanceEvents, Kind::kCounter, "rebalances",
     "rebalance epochs installed (online or explicit)"},
    {kShardRebalanceMovedPoints, Kind::kCounter, "points",
     "live points re-partitioned by installed rebalances"},
    {kShardRecoveryDegraded, Kind::kCounter, "shards",
     "shards that failed to open or reconcile and were degraded"},
    {kApproxQueryCount, Kind::kCounter, "queries",
     "queries answered by the approximate-tier best-first traversal"},
    {kApproxTerminatedEarly, Kind::kCounter, "queries",
     "approximate queries stopped by the (1+epsilon) certificate rule"},
    {kApproxTruncated, Kind::kCounter, "queries",
     "approximate queries that exhausted the leaf-visit budget"},
    {kApproxLeafVisits, Kind::kCounter, "pages",
     "leaf pages scanned by approximate-tier traversals"},
    {kApproxLeafVisitsPerQuery, Kind::kHistogram, "pages",
     "leaf pages scanned per approximate query"},
};

inline constexpr size_t kNumMetricDefs =
    sizeof(kMetricDefs) / sizeof(kMetricDefs[0]);

}  // namespace metrics
}  // namespace nncell

#endif  // NNCELL_COMMON_METRICS_NAMES_H_
