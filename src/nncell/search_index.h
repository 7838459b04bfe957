#ifndef NNCELL_NNCELL_SEARCH_INDEX_H_
#define NNCELL_NNCELL_SEARCH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/approx.h"
#include "common/check.h"
#include "common/point_set.h"
#include "common/status.h"
#include "rstar/rtree_core.h"

namespace nncell {

struct NNCellOptions;

// The one query surface of the NN-cell system. A nearest-neighbor query
// is the same operation whether the index is one NNCellIndex or a
// ShardedIndex partitioning the data across several (the shard layer
// merges bit-identically), and whether or not it allows a (1+epsilon)
// slack: a default ApproxOptions takes the exact path. Front ends -- the
// server dispatcher, the CLI -- hold a SearchIndex and never branch on
// the index kind. Both implementations are `final`, so calls through the
// concrete type stay non-virtual.
//
// Thread safety is the implementation's: any number of concurrent
// readers (the const query calls), mutations externally exclusive.
class SearchIndex {
 public:
  struct QueryResult {
    uint64_t id = 0;              // index of the nearest neighbor
    double dist = 0.0;            // Euclidean distance
    std::vector<double> point;    // its coordinates
    size_t candidates = 0;        // candidate cells inspected
    bool used_fallback = false;   // numeric edge case: fell back to scan
    ApproxCertificate approx;     // default (exact) unless ApproxOptions
                                  // requested the approximate tier
  };

  SearchIndex() = default;
  SearchIndex(const SearchIndex&) = delete;
  SearchIndex& operator=(const SearchIndex&) = delete;
  virtual ~SearchIndex() = default;

  virtual size_t dim() const = 0;
  // Number of live points.
  virtual size_t size() const = 0;
  virtual const NNCellOptions& options() const = 0;
  // True when mutations are logged and Checkpoint() applies.
  virtual bool durable() const = 0;

  // Nearest neighbor of q. A default `approx` runs the exact cell-index
  // path; an enabled one answers from the approximate tier with a
  // populated certificate (docs/APPROXIMATE.md).
  virtual StatusOr<QueryResult> Query(const double* q,
                                      const ApproxOptions& approx = {})
      const = 0;
  // Query() for every row of `queries`, results in input order (fanned
  // across the index's thread pool when it has one).
  virtual StatusOr<std::vector<QueryResult>> QueryBatch(
      const PointSet& queries, const ApproxOptions& approx = {}) const = 0;
  // The min(k, size()) nearest neighbors, ascending by distance.
  virtual StatusOr<std::vector<QueryResult>> KnnQuery(
      const double* q, size_t k, const ApproxOptions& approx = {}) const = 0;
  // The same two queries for a point held in a vector of dim() values.
  // Implementations bring these into scope with `using`.
  StatusOr<QueryResult> Query(const std::vector<double>& q,
                              const ApproxOptions& approx = {}) const {
    NNCELL_CHECK(q.size() == dim());
    return Query(q.data(), approx);
  }
  StatusOr<std::vector<QueryResult>> KnnQuery(
      const std::vector<double>& q, size_t k,
      const ApproxOptions& approx = {}) const {
    NNCELL_CHECK(q.size() == dim());
    return KnnQuery(q.data(), k, approx);
  }

  virtual StatusOr<uint64_t> Insert(const std::vector<double>& point) = 0;
  virtual Status Delete(uint64_t id) = 0;
  // Folds the write-ahead log into a fresh snapshot; durable indexes only.
  virtual Status Checkpoint() = 0;
  // Threads for QueryBatch (and build fan-out); 0 = one per core. Not
  // thread-safe: call only while no other thread uses the index.
  virtual void SetNumThreads(size_t num_threads) = 0;

  // The paper's quality measure (expected candidates per uniform query)
  // and the underlying trees' shape and validation.
  virtual double ExpectedCandidates() const = 0;
  virtual RTreeCore::TreeInfo TreeInfo() const = 0;
  virtual std::string ValidateTree() const = 0;

  // The "shard" object of the server's STATS_JSON and of `nncell_cli
  // stats --json`; empty for an unsharded index, which omits the key.
  virtual std::string ShardStatsJson() const { return std::string(); }
};

}  // namespace nncell

#endif  // NNCELL_NNCELL_SEARCH_INDEX_H_
