#ifndef NNCELL_NNCELL_NNCELL_INDEX_H_
#define NNCELL_NNCELL_NNCELL_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/approx.h"
#include "common/hyper_rect.h"
#include "common/point_set.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "geom/cell_approximator.h"
#include "geom/decomposition.h"
#include "nncell/query_trace.h"
#include "nncell/search_index.h"
#include "rstar/rtree_core.h"
#include "storage/buffer_pool.h"

namespace nncell {

class WriteAheadLog;

// How existing cells are repaired after a dynamic insert. A new point only
// ever *shrinks* cells, and a stale (larger) approximation is still a
// correct superset, so maintenance is a quality knob, not a correctness
// requirement (Section 2 of the paper).
enum class MaintenanceMode {
  kNone,    // never touch existing approximations
  kSphere,  // the paper's heuristic: recompute cells whose MBR intersects a
            // sphere around the new point
  kExact,   // recompute exactly the cells whose MBR crosses the bisector of
            // (owner, new point) -- every cell that can actually shrink
};

// Threading knob for the parallel phases of the engine. The per-point LP
// solves of a bulk build are embarrassingly parallel ([Ber+ 97] proposes
// parallelism as the cure for the residual NN search cost; covering-box
// Voronoi constructions make the same observation), and batched queries
// fan out across concurrent readers of the shared buffer pool.
struct ParallelOptions {
  // Threads used for BulkBuild LP fan-out, QueryBatch and the cell
  // recomputes of Insert/Delete. 1 = serial (no pool is created); 0 = one
  // thread per hardware core.
  size_t num_threads = 1;

  size_t Resolve() const {
    return num_threads == 0 ? ThreadPool::DefaultThreads() : num_threads;
  }
};

struct NNCellOptions {
  // Which points contribute LP constraints (Section 2's four algorithms).
  ApproxAlgorithm algorithm = ApproxAlgorithm::kSphere;

  // Sphere strategy radius; 0 = the paper's heuristic, which shrinks as
  // the database grows.
  double sphere_radius = 0.0;

  // Per-dimension weights of a weighted Euclidean metric
  //   d_W(x,y)^2 = sum_i w_i (x_i - y_i)^2
  // ("adaptable" similarity search: user-tuned feature importance).
  // Empty = plain Euclidean. Implemented by the isometry x_i -> sqrt(w_i)
  // x_i, under which every NN-cell/bisector argument goes through
  // unchanged; reported distances are d_W, reported points are in the
  // original coordinates.
  std::vector<double> weights;

  // Sphere strategy: additionally require the candidate *point* (not just
  // its page region) to lie inside the sphere. Keeps the LP constraint
  // count near-constant in N, making large static builds tractable; the
  // MBRs may only grow (Lemma 1 still applies).
  bool sphere_point_filter = true;

  // Section 3 decomposition; max_partitions <= 1 disables it.
  DecompositionOptions decomposition;

  // Underlying multidimensional index for the approximations.
  bool use_xtree = true;

  MaintenanceMode maintenance = MaintenanceMode::kExact;

  LpOptions lp;

  // LP hot-path pipeline knob (warm-started face solves). Runtime-only
  // like `lp`: either setting yields the same MBRs, so it is not part of
  // the persisted image.
  CellApproxOptions approx;

  // Threading for BulkBuild / QueryBatch / maintenance. Purely a runtime
  // knob: the index is byte-identical for every thread count, so it is
  // not part of the persisted image.
  ParallelOptions parallel;

  // Options forwarded to the underlying tree (dim / aux are overwritten).
  TreeOptions tree;
};

struct NNCellBuildStats {
  ApproxStats approx;
  size_t cells_recomputed = 0;  // dynamic-maintenance recomputations
  size_t entries_inserted = 0;  // tree entries written (incl. decomposition)
  size_t deletions = 0;
};

// The paper's contribution: nearest-neighbor search by indexing the
// solution space. Every data point's NN-cell (order-1 Voronoi cell bounded
// by the data space) is approximated by one or more MBRs via linear
// programming and stored in an X-tree; a NN query is then a point query on
// that index followed by exact distance checks among the candidate owners.
class NNCellIndex final : public SearchIndex {
 public:
  // `pool` provides the paged storage for the underlying tree. The data
  // space is fixed to [0,1]^dim as in the paper.
  NNCellIndex(BufferPool* pool, size_t dim, NNCellOptions options);
  ~NNCellIndex() override;

  size_t dim() const override { return dim_; }
  // Number of live points.
  size_t size() const override { return live_count_; }
  // Internal point table in *metric-transformed* coordinates (identical to
  // the input coordinates unless options().weights is set). Includes
  // tombstoned points; check IsAlive().
  const PointSet& points() const { return points_; }
  const NNCellOptions& options() const override { return options_; }
  const NNCellBuildStats& build_stats() const { return build_stats_; }

  // Dynamically inserts a point (paper Fig. 3: candidate selection, 2d LP
  // runs, index insert, then maintenance of the cells the new point
  // shrinks). Exact duplicates are rejected (their NN-cell would be
  // degenerate).
  StatusOr<uint64_t> Insert(const std::vector<double>& point) override;

  // Static index creation (the paper's precomputation): registers all
  // points first, then computes every approximation once against the full
  // point set -- no maintenance needed. Duplicates are skipped.
  Status BulkBuild(const PointSet& pts);

  // Deletes a point. Neighboring cells grow into the freed region, so
  // every cell whose approximation touches the deleted cell's
  // approximation is recomputed (a superset of the true Voronoi
  // neighbors; the paper defers to Roos' dynamic Voronoi algorithms for
  // this case). Ids are stable; deleted ids are never reused.
  Status Delete(uint64_t id) override;

  // Whether the id refers to a live point.
  bool IsAlive(uint64_t id) const {
    return id < alive_.size() && alive_[id];
  }

  // The point's coordinates in the *original* (pre-weight-isometry) space,
  // exactly as they were passed to Insert/BulkBuild. Used by callers that
  // re-partition points (the sharded rebalance) and by anything that must
  // round-trip a point through the public API.
  std::vector<double> OriginalPoint(uint64_t id) const;

  // Nearest-neighbor query = point query on the approximation index plus
  // exact distance checks over the candidates (Lemma 2 guarantees the true
  // NN is always among them). Query is safe to call from any number of
  // threads concurrently as long as no thread mutates the index (Insert /
  // Delete / BulkBuild) at the same time.
  //
  // Approximate query tier (docs/APPROXIMATE.md): a default `approx`
  // takes the exact path above. An enabled one (epsilon > 0 or a
  // leaf-visit budget) answers from a certified / bounded-effort
  // best-first traversal of the point X-tree, and the answer's
  // certificate is populated: min(dist, approx.bound) lower-bounds the
  // true NN distance, an untruncated search additionally guarantees
  // dist <= (1+epsilon) * true distance, and a truncated search returns
  // best-seen with approx.approximate == true.
  StatusOr<QueryResult> Query(const double* q,
                              const ApproxOptions& approx = {}) const override;
  using SearchIndex::Query;

  // Traced variant of the exact query: when `trace` is non-null it is
  // cleared and filled with the per-stage timeline of this one query (see
  // query_trace.h). Same thread-safety as Query; the buffer-pool read
  // deltas in the trace are attributed pool-wide, so they are exact only
  // when no other query runs concurrently.
  StatusOr<QueryResult> Query(const double* q, QueryTrace* trace) const;

  // Batched nearest-neighbor search: answers every query and returns the
  // results in input order. With options().parallel.num_threads > 1 the
  // batch is fanned across the thread pool -- N concurrent readers over
  // the shared buffer pool; results are identical to a serial loop of
  // Query() calls. Several threads may call QueryBatch concurrently.
  StatusOr<std::vector<QueryResult>> QueryBatch(
      const PointSet& queries, const ApproxOptions& approx = {}) const override;

  // Reconfigures the thread count for the parallel phases (e.g. after
  // Load, which restores with the serial default). Not thread-safe: call
  // only while no other thread uses the index.
  void SetNumThreads(size_t num_threads) override;

  // Runs the parallel phases on `pool` instead of a pool of this index's
  // own (nullptr = serial). The caller owns `pool` and keeps it alive
  // while the index uses it; the sharded index lends its router pool to
  // every shard this way. Same thread-safety as SetNumThreads.
  void UseThreadPool(ThreadPool* pool);

  // Exact k-nearest-neighbor search -- the extension the paper names as
  // future work. Every point within distance r of q has a cell
  // approximation intersecting Ball(q, r) (the approximation contains its
  // owner), so a ball query on the cell index with a radius that provably
  // covers k owners returns a superset of the true k-NN. The radius comes
  // from the point-query candidates and grows geometrically in the rare
  // case they contain fewer than k owners. Results are ascending by
  // distance; returns min(k, size()) entries. An enabled `approx` runs the
  // approximate tier's traversal instead, as for Query.
  StatusOr<std::vector<QueryResult>> KnnQuery(
      const double* q, size_t k,
      const ApproxOptions& approx = {}) const override;
  using SearchIndex::KnnQuery;

  // Similarity range query: every live point within `radius` of q
  // (ascending by distance). Same covering argument as KnnQuery: each
  // in-range owner's cell approximation contains the owner and therefore
  // intersects Ball(q, radius), so a ball query on the cell index cannot
  // miss one. Distances are in the configured (possibly weighted) metric.
  StatusOr<std::vector<QueryResult>> RangeSearch(const double* q,
                                                 double radius) const;
  StatusOr<std::vector<QueryResult>> RangeSearch(const std::vector<double>& q,
                                                 double radius) const;

  // Re-runs the cell-approximation pipeline (candidate selection + LP
  // solves) for `sample` deterministically chosen live points and returns
  // the aggregated effort counters; the computed rectangles are discarded
  // and the index is not modified. Pure read -- used by `nncell_cli stats`
  // to surface live LP metrics for an index loaded from disk. `seed` only
  // rotates which points are sampled.
  ApproxStats MeasureApproxEffort(size_t sample, uint64_t seed = 0) const;

  // The paper's quality measure: the expected number of approximations
  // containing a uniform query point (sum of MBR volumes over the data
  // space volume). 1.0 = perfect (no overlap).
  double ExpectedCandidates() const override;

  // The current approximation rectangles of one point (>= 1 entries).
  const std::vector<HyperRect>& CellRects(uint64_t id) const;

  // Underlying tree statistics / validation (test support).
  RTreeCore::TreeInfo TreeInfo() const override;
  std::string ValidateTree() const override;

  // Deep self-check: validates the underlying tree, verifies that every
  // live point lies inside (one of) its own approximation rectangles,
  // that the indexed entries match the bookkeeping exactly, and that
  // `sample_queries` random queries return the true nearest neighbor.
  // Returns OK or a description of the first violation.
  Status CheckInvariants(size_t sample_queries = 100,
                         uint64_t seed = 0x5eed) const;

  // Persistence: writes the complete index -- options, point table,
  // approximations and both page files -- as one checksummed snapshot
  // (format v2, docs/PERSISTENCE.md). Save(path) writes atomically via
  // temp file + fsync + rename, so a crash mid-save leaves the previous
  // snapshot intact. Restoring replaces the contents of `file` (the
  // cell-index storage `pool` wraps; page size must match the saved one),
  // and is all-or-nothing: on any error -- truncation, checksum mismatch,
  // version skew -- `file`, `pool` and the returned Status describe the
  // first violation and nothing has been mutated.
  Status Save(std::ostream& out) const;
  Status Save(const std::string& path) const;
  static StatusOr<std::unique_ptr<NNCellIndex>> Load(std::istream& in,
                                                     PageFile* file,
                                                     BufferPool* pool);
  static StatusOr<std::unique_ptr<NNCellIndex>> Load(const std::string& path,
                                                     PageFile* file,
                                                     BufferPool* pool);

  // --- Durable mode --------------------------------------------------------

  struct DurableOptions {
    size_t page_size = 4096;   // used when creating a fresh durable index
    size_t pool_pages = 4096;  // cell-index buffer pool capacity
    // WAL group-commit granularity: fsync every N-th append. 1 = every
    // acknowledged Insert/Delete is durable before it returns; N > 1
    // trades the tail of < N acknowledged operations against fsync cost.
    size_t wal_group_sync = 1;
  };

  // What Open() found and did; for operators and the recovery tests.
  struct RecoveryInfo {
    bool snapshot_loaded = false;       // a snapshot existed and parsed
    bool created = false;               // neither snapshot nor usable WAL
    uint64_t snapshot_wal_lsn = 0;      // WAL position the snapshot covers
    uint64_t wal_records_replayed = 0;  // records re-applied after it
    uint64_t wal_records_skipped = 0;   // records the snapshot already held
    uint64_t wal_torn_bytes = 0;        // torn WAL tail truncated
  };

  // Opens (or creates) a durable index rooted at directory `dir`:
  // loads `dir`/snapshot.nncell if present, replays the WAL tail from
  // `dir`/wal.log (skipping records the snapshot already covers,
  // truncating a torn final record), and arms the WAL so every later
  // Insert/Delete is logged before it mutates the index. `dim` must match
  // an existing snapshot, or be the dimension of the new index when the
  // directory is empty (0 = "whatever the snapshot says", creation error
  // when there is none). Corruption anywhere -- snapshot or mid-WAL --
  // surfaces as a precise error, never as a silently wrong index.
  static StatusOr<std::unique_ptr<NNCellIndex>> Open(
      const std::string& dir, size_t dim, NNCellOptions options,
      DurableOptions dopts, RecoveryInfo* info = nullptr);
  static StatusOr<std::unique_ptr<NNCellIndex>> Open(const std::string& dir,
                                                     size_t dim,
                                                     NNCellOptions options) {
    return Open(dir, dim, std::move(options), DurableOptions(), nullptr);
  }

  // Folds the WAL into a fresh snapshot: atomically writes the snapshot
  // (recording the covered WAL position), then truncates the log. A crash
  // between the two steps is safe -- the next Open skips the already-
  // covered records by LSN. Durable mode only.
  Status Checkpoint() override;

  // True when this index was created by Open() and logs to a WAL.
  bool durable() const override { return wal_ != nullptr; }

 private:
  // Candidate constraint points for `point` (not yet inserted) per the
  // configured algorithm; `self` is kInvalidId for new points or the id of
  // the point whose cell is being recomputed.
  std::vector<const double*> SelectCandidates(const double* point,
                                              uint64_t self) const;

  // Computes the decomposed MBR approximation of `owner`'s cell. Pure
  // read (candidate selection + LP solves): safe to run concurrently for
  // different owners as long as each call gets its own `stats`.
  std::vector<HyperRect> ComputeCellRects(const double* owner, uint64_t self,
                                          ApproxStats* stats) const;

  // Computes the cells of `ids` (registered points) into one slot each,
  // fanned out on the thread pool when there is one, and adds their LP
  // effort to build_stats_ in `ids` order. Reads only the point table and
  // the point tree, which the callers keep frozen meanwhile.
  std::vector<std::vector<HyperRect>> ComputeCells(
      const std::vector<uint64_t>& ids);

  // Dynamic maintenance of Insert and Delete: recomputes the cells of
  // `ids` (live, ascending) with ComputeCells and commits the results
  // serially in `ids` order, so the index is the same for every thread
  // count. Only cells whose rectangles changed (bit-for-bit) are deleted
  // from and reinserted into the cell tree; cells_recomputed counts all.
  void RecomputeCells(const std::vector<uint64_t>& ids);

  // True when the cell of `id` can shrink due to the new point `p`.
  bool CellAffectedBy(uint64_t id, const double* p) const;

  double SphereRadius() const;

  // Applies / inverts the sqrt(weight) isometry (identity when unweighted).
  std::vector<double> ToMetricSpace(const double* x) const;
  std::vector<double> FromMetricSpace(const std::vector<double>& x) const;

  // The preconditions of inserting `original`: matching dimension,
  // finite coordinates inside the data space, and no exact duplicate of a
  // live point. Returns the point in metric space. Pure read, so a
  // rejected insert leaves the index, its stats and its WAL untouched.
  StatusOr<std::vector<double>> ValidateInsert(
      const std::vector<double>& original) const;

  // Registers a validated metric-space point in points_ / lookup (and,
  // unless deferred for a bulk load, the point tree); returns its id.
  uint64_t RegisterPoint(const std::vector<double>& point,
                         bool insert_into_point_tree);

  // Serializes the full snapshot image (header, metadata, both page
  // files, footer) recording `wal_lsn` as the WAL position it covers.
  Status SerializeSnapshot(std::string* out, uint64_t wal_lsn) const;

  // Validates and loads one snapshot image. All-or-nothing: `file` and
  // `pool` are only mutated after every checksum and structural check has
  // passed. `wal_lsn` receives the WAL position the snapshot covers.
  static StatusOr<std::unique_ptr<NNCellIndex>> LoadImage(
      const uint8_t* data, size_t size, PageFile* file, BufferPool* pool,
      uint64_t* wal_lsn);

  // Reads the page size out of a snapshot header (validating magic,
  // version and header checksum only) so Open can size the PageFile.
  static StatusOr<size_t> PeekSnapshotPageSize(const std::string& image);

  // Durable-mode write-ahead hooks (durability.cc): LogInsert/LogDelete
  // append the operation's WAL record. Callers check the preconditions
  // first, so a record is only ever logged for an operation that will
  // succeed; ReplayWalRecord re-applies one recovered record.
  Status LogInsert(const std::vector<double>& original);
  Status LogDelete(uint64_t id);
  Status ReplayWalRecord(const std::vector<uint8_t>& payload);

  size_t dim_;
  NNCellOptions options_;
  HyperRect space_;
  PointSet points_;
  CellApproximator approximator_;

  // Durable-mode storage, owned by the index (in-memory indexes borrow
  // the caller's pool instead and leave these null). Declared before
  // tree_ so the pool the tree flushes into outlives it.
  std::unique_ptr<PageFile> durable_file_;
  std::unique_ptr<BufferPool> durable_pool_;

  std::unique_ptr<RTreeCore> tree_;  // indexes the cell approximations

  // Workers for BulkBuild fan-out, QueryBatch and maintenance; nullptr
  // when serial. Points at own_pool_ or at a pool lent by UseThreadPool.
  ThreadPool* thread_pool_ = nullptr;
  std::unique_ptr<ThreadPool> own_pool_;

  // Build-time point index: the paper's Point/Sphere strategies select
  // candidates by page rectangles of an index over the data points.
  std::unique_ptr<PageFile> point_file_;
  std::unique_ptr<BufferPool> point_pool_;
  std::unique_ptr<RTreeCore> point_tree_;

  // Shared engine of the approximate tier: certified / bounded-effort
  // best-first k-NN on point_tree_ (requires approx.enabled(); Query and
  // KnnQuery take their exact path otherwise).
  StatusOr<std::vector<QueryResult>> ApproxTraversalQuery(
      const double* q_original, size_t k, const ApproxOptions& approx) const;

  std::vector<std::vector<HyperRect>> cell_rects_;  // per point id
  std::vector<bool> alive_;                          // tombstones
  size_t live_count_ = 0;
  std::map<std::vector<double>, uint64_t> point_lookup_;  // duplicate check
  NNCellBuildStats build_stats_;

  // Durable mode (set by Open): operations append here before mutating.
  std::unique_ptr<WriteAheadLog> wal_;
  std::string durable_dir_;
};

}  // namespace nncell

#endif  // NNCELL_NNCELL_NNCELL_INDEX_H_
