#include "server/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.h"
#include "common/kernels/kernels.h"
#include "common/metrics_names.h"
#include "server/socket_io.h"
#include "storage/fs_util.h"

namespace nncell {
namespace server {

namespace {

// Slow-consumer bound: a response frame that does not finish writing
// within this long marks the connection's write side dead instead of
// stalling the dispatcher forever behind one stuck client. Enforced two
// ways: SO_SNDTIMEO bounds each blocking send(), and WriteFull is given
// the same value as an overall per-frame deadline so a peer trickling a
// byte every few seconds (keeping individual sends alive) is still cut
// off.
constexpr int kSendTimeoutSeconds = 30;

bool IsQueryType(uint8_t type) {
  return type == kReqQuery || type == kReqQueryBatch;
}

}  // namespace

NNCellServer::NNCellServer(SearchIndex* index, ServerOptions options)
    : index_(index), options_(std::move(options)) {
  NNCELL_CHECK(index_ != nullptr);
  NNCELL_CHECK(options_.max_queue > 0);
  NNCELL_CHECK(options_.max_batch > 0);
  metrics::Registry& reg = metrics::Registry::Global();
  m_conn_opened_ = reg.counter(metrics::kServerConnectionsOpened);
  m_conn_closed_ = reg.counter(metrics::kServerConnectionsClosed);
  m_accepted_ = reg.counter(metrics::kServerRequestsAccepted);
  m_completed_ = reg.counter(metrics::kServerRequestsCompleted);
  m_rejected_ = reg.counter(metrics::kServerRequestsRejected);
  m_malformed_ = reg.counter(metrics::kServerFramesMalformed);
  m_batches_ = reg.counter(metrics::kServerBatchesDispatched);
  m_batch_size_ = reg.histogram(metrics::kServerBatchSize);
  m_queue_depth_ = reg.gauge(metrics::kServerQueueDepth);
  m_latency_query_ = reg.histogram(metrics::kServerLatencyQueryUs);
  m_latency_write_ = reg.histogram(metrics::kServerLatencyWriteUs);
}

NNCellServer::~NNCellServer() {
  if (running()) (void)Stop();  // best effort; Stop's status is its result
}

Status NNCellServer::Start() {
  if (running()) return Status::FailedPrecondition("server already running");
  if (options_.socket_path.empty() && options_.tcp_port == 0) {
    return Status::InvalidArgument("no listener configured");
  }
  if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) {
    return Status::Internal(fs::ErrnoMessage("pipe2"));
  }
  if (!options_.socket_path.empty()) {
    auto fd = ListenUnix(options_.socket_path, options_.listen_backlog);
    if (!fd.ok()) return fd.status();
    listen_fds_.push_back(*fd);
  }
  if (options_.tcp_port != 0) {
    auto fd = ListenTcp(options_.tcp_port, options_.listen_backlog);
    if (!fd.ok()) {
      for (int lfd : listen_fds_) ::close(lfd);
      listen_fds_.clear();
      return fd.status();
    }
    listen_fds_.push_back(*fd);
  }
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  dispatcher_thread_ = std::thread([this] { DispatcherLoop(); });
  for (int fd : listen_fds_) {
    listener_threads_.emplace_back([this, fd] { ListenerLoop(fd); });
  }
  return Status::OK();
}

Status NNCellServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting: wake the listener polls and join them.
  (void)!::write(wake_pipe_[1], "x", 1);
  for (std::thread& t : listener_threads_) t.join();
  listener_threads_.clear();
  for (int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;

  // 2. Shut the read side of every connection: in-flight reads return,
  // readers enqueue nothing further and exit.
  std::vector<std::thread> readers;
  {
    MutexLock lock(conns_mu_);
    for (auto& [id, conn] : conns_) ::shutdown(conn->fd, SHUT_RD);
    for (auto& [id, t] : reader_threads_) readers.push_back(std::move(t));
    reader_threads_.clear();
    for (std::thread& t : finished_reader_threads_) {
      readers.push_back(std::move(t));
    }
    finished_reader_threads_.clear();
  }
  for (std::thread& t : readers) t.join();

  // 3. Drain: the dispatcher answers everything still queued, then exits.
  {
    MutexLock lock(queue_mu_);
    readers_done_ = true;
    queue_cv_.NotifyAll();
  }
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();

  // 4. Close the connections (the map holds the last references; the
  // Connection destructor closes each fd exactly once).
  {
    MutexLock lock(conns_mu_);
    conns_.clear();
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }

  // 5. Make the served state durable before the process goes away.
  if (index_->durable()) return index_->Checkpoint();
  return Status::OK();
}

void NNCellServer::ListenerLoop(int listen_fd) {
  for (;;) {
    struct pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        draining_.load(std::memory_order_acquire)) {
      return;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;  // transient accept failure or racing shutdown

    struct timeval tv = {kSendTimeoutSeconds, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::vector<std::thread> finished;
    {
      MutexLock lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
      reader_threads_[conn->id] =
          std::thread([this, conn] { ReaderLoop(conn); });
      finished.swap(finished_reader_threads_);
    }
    // Reap readers whose connections already closed. These threads have
    // (at most) a few instructions left past handing off their handle, so
    // the joins are effectively instant; doing them outside conns_mu_
    // keeps an exiting reader's own lock acquisition deadlock-free.
    for (std::thread& t : finished) t.join();
    NNCELL_METRIC_COUNT(m_conn_opened_, 1);
  }
}

void NNCellServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  while (HandleOneFrame(conn)) {
  }
  {
    MutexLock lock(conns_mu_);
    // Drop the map's reference; queued responses keep the connection alive
    // until the dispatcher has written them, then the fd closes.
    if (!draining_.load(std::memory_order_acquire)) {
      conns_.erase(conn->id);
    }
    // Hand our own thread handle to the listener for reaping. Absent means
    // Stop() already claimed it and is (or will be) joining us.
    auto it = reader_threads_.find(conn->id);
    if (it != reader_threads_.end()) {
      finished_reader_threads_.push_back(std::move(it->second));
      reader_threads_.erase(it);
    }
  }
  NNCELL_METRIC_COUNT(m_conn_closed_, 1);
}

bool NNCellServer::HandleOneFrame(const std::shared_ptr<Connection>& conn) {
  uint8_t header_buf[kFrameHeaderBytes];
  Status st = ReadFull(conn->fd, header_buf, sizeof(header_buf));
  if (!st.ok()) return false;  // clean close, truncation, or I/O fault

  FrameHeader header;
  st = DecodeFrameHeader(header_buf, sizeof(header_buf), &header);
  if (!st.ok()) {
    // The byte stream cannot be resynchronized: answer with a bare error
    // frame (type kRespBit: the request type byte is untrusted) and close
    // the connection deliberately.
    Count(malformed_, m_malformed_);
    RespondStatus(conn, kRespBit, header.request_id, kStatusMalformed,
                  st.message());
    return false;
  }

  std::string payload(header.payload_len, '\0');
  if (header.payload_len > 0) {
    st = ReadFull(conn->fd, payload.data(), payload.size());
    if (!st.ok()) {
      // Truncated payload: the frame can never complete; close.
      Count(malformed_, m_malformed_);
      RespondStatus(conn, kRespBit, header.request_id, kStatusMalformed,
                    "truncated payload: " + st.message());
      return false;
    }
  }

  st = VerifyPayloadCrc(header, payload);
  if (!st.ok()) {
    // Framing is intact (we consumed exactly the advertised bytes), so the
    // connection survives a corrupt payload.
    Count(malformed_, m_malformed_);
    RespondStatus(conn, static_cast<uint8_t>(header.type | kRespBit),
                  header.request_id, kStatusMalformed, st.message());
    return true;
  }
  if (header.type < kReqPing || header.type > kReqCheckpoint) {
    Count(malformed_, m_malformed_);
    RespondStatus(conn, static_cast<uint8_t>(header.type | kRespBit),
                  header.request_id, kStatusMalformed,
                  "unknown request type " + std::to_string(header.type));
    return true;
  }

  // A well-formed request: admit or reject, never stall.
  Count(accepted_, m_accepted_);
  const uint8_t resp_type = static_cast<uint8_t>(header.type | kRespBit);
  if (draining_.load(std::memory_order_acquire)) {
    Count(rejected_, m_rejected_);
    RespondStatus(conn, resp_type, header.request_id, kStatusShuttingDown,
                  "server is draining");
    return false;
  }
  bool admitted = false;
  {
    MutexLock lock(queue_mu_);
    if (queue_.size() < options_.max_queue) {
      WorkItem item;
      item.conn = conn;
      item.type = header.type;
      item.request_id = header.request_id;
      item.payload = std::move(payload);
      item.enqueued = std::chrono::steady_clock::now();
      queue_.push_back(std::move(item));
      queue_cv_.NotifyOne();
      admitted = true;
    }
  }
  // The rejection is written outside queue_mu_: RespondStatus can block on
  // a slow consumer for up to the send timeout, and holding the queue lock
  // across it would stall the dispatcher and every other reader.
  if (!admitted) {
    Count(rejected_, m_rejected_);
    RespondStatus(conn, resp_type, header.request_id, kStatusRetryLater,
                  "admission queue full");
    return true;
  }
  NNCELL_METRIC_GAUGE_ADD(m_queue_depth_, 1);
  return true;
}

void NNCellServer::DispatcherLoop() {
  for (;;) {
    std::vector<WorkItem> run;
    {
      MutexLock lock(queue_mu_);
      while (queue_.empty() && !readers_done_) queue_cv_.Wait(queue_mu_);
      if (queue_.empty() && readers_done_) return;
      // Adaptive micro-batching: take the head, then every consecutive
      // query already waiting, up to max_batch items. Arrival order is
      // preserved -- a write op ends the run.
      run.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (IsQueryType(run.front().type)) {
        while (run.size() < options_.max_batch && !queue_.empty() &&
               IsQueryType(queue_.front().type)) {
          run.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
    }
    NNCELL_METRIC_GAUGE_ADD(m_queue_depth_,
                            -static_cast<int64_t>(run.size()));
    if (IsQueryType(run.front().type)) {
      ExecuteQueryRun(run);
    } else {
      ExecuteItem(run.front());
    }
  }
}

namespace {

WireQueryResult ToWire(const SearchIndex::QueryResult& r,
                       bool with_certificate) {
  WireQueryResult w;
  w.id = r.id;
  w.dist = r.dist;
  w.candidates = static_cast<uint32_t>(r.candidates);
  w.used_fallback = r.used_fallback ? 1 : 0;
  w.point = r.point;
  w.has_certificate = with_certificate;
  if (with_certificate) {
    w.certificate.approximate = r.approx.approximate ? 1 : 0;
    w.certificate.terminated_early = r.approx.terminated_early ? 1 : 0;
    w.certificate.truncated = r.approx.truncated ? 1 : 0;
    w.certificate.leaf_visits = r.approx.leaf_visits;
    w.certificate.bound = r.approx.bound;
  }
  return w;
}

}  // namespace

void NNCellServer::ExecuteQueryRun(std::vector<WorkItem>& run) {
  // Decode every item first; only valid queries enter a batch. Consecutive
  // items with identical approx knobs share one QueryBatch call, so
  // traffic without the approx block (the common case, and every pre-tier
  // client) coalesces into a single exact batch exactly as before.
  struct Decoded {
    size_t first = 0;  // offset of this item's queries in its group's batch
    size_t count = 0;  // 0 = decode failed, response already sent
    size_t group = 0;  // index into `groups`
    bool has_approx = false;  // request carried the block -> respond with
                              // certificates
  };
  struct Group {
    ApproxOptions approx;
    PointSet batch;
    std::vector<SearchIndex::QueryResult> results;
    Status status;
    Group(size_t dim, const ApproxOptions& a) : approx(a), batch(dim) {}
  };
  std::vector<Decoded> decoded(run.size());
  std::vector<Group> groups;
  groups.reserve(run.size());
  for (size_t i = 0; i < run.size(); ++i) {
    const WorkItem& item = run[i];
    const uint8_t resp_type = static_cast<uint8_t>(item.type | kRespBit);
    std::vector<double> flat;
    size_t dim = 0;
    size_t count = 0;
    ApproxOptions approx;
    bool has_approx = false;
    Status st;
    if (item.type == kReqQuery) {
      std::vector<double> point;
      st = DecodePointPayloadWithApprox(item.payload, &point, &approx,
                                        &has_approx);
      dim = point.size();
      count = 1;
      flat = std::move(point);
    } else {
      st = DecodeBatchPayloadWithApprox(item.payload, &dim, &flat, &count,
                                        &approx, &has_approx);
    }
    if (!st.ok()) {
      Count(completed_, m_completed_);
      RespondStatus(item.conn, resp_type, item.request_id, kStatusMalformed,
                    st.message());
      continue;
    }
    if (dim != index_->dim()) {
      Count(completed_, m_completed_);
      RespondStatus(item.conn, resp_type, item.request_id, kStatusError,
                    "dimension mismatch: got " + std::to_string(dim) +
                        ", index is " + std::to_string(index_->dim()));
      continue;
    }
    if (groups.empty() ||
        groups.back().approx.epsilon != approx.epsilon ||
        groups.back().approx.max_leaf_visits != approx.max_leaf_visits) {
      groups.emplace_back(index_->dim(), approx);
    }
    Group& g = groups.back();
    decoded[i].group = groups.size() - 1;
    decoded[i].has_approx = has_approx;
    decoded[i].first = g.batch.size();
    decoded[i].count = count;
    for (size_t q = 0; q < count; ++q) {
      g.batch.Add(flat.data() + q * dim);
    }
  }

  for (Group& g : groups) {
    NNCELL_METRIC_COUNT(m_batches_, 1);
    NNCELL_METRIC_RECORD(m_batch_size_, g.batch.size());
    auto r = index_->QueryBatch(g.batch, g.approx);
    if (r.ok()) {
      g.results = std::move(*r);
    } else {
      g.status = r.status();
    }
  }

  for (size_t i = 0; i < run.size(); ++i) {
    if (decoded[i].count == 0) continue;  // already answered above
    const WorkItem& item = run[i];
    const uint8_t resp_type = static_cast<uint8_t>(item.type | kRespBit);
    const Group& g = groups[decoded[i].group];
    if (!g.status.ok()) {
      Count(completed_, m_completed_);
      RespondStatus(item.conn, resp_type, item.request_id, kStatusError,
                    g.status.message());
      continue;
    }
    std::string payload;
    if (item.type == kReqQuery) {
      EncodeQueryResultPayload(
          ToWire(g.results[decoded[i].first], decoded[i].has_approx),
          &payload);
    } else {
      std::vector<WireQueryResult> rs;
      rs.reserve(decoded[i].count);
      for (size_t q = 0; q < decoded[i].count; ++q) {
        rs.push_back(ToWire(g.results[decoded[i].first + q],
                            decoded[i].has_approx));
      }
      EncodeQueryBatchResultPayload(rs, &payload);
    }
    Respond(item, resp_type, payload);
  }
}

void NNCellServer::ExecuteItem(const WorkItem& item) {
  const uint8_t resp_type = static_cast<uint8_t>(item.type | kRespBit);
  std::string payload;
  switch (item.type) {
    case kReqPing:
      EncodeStatusPayload(kStatusOk, "", &payload);
      break;
    case kReqInsert: {
      std::vector<double> point;
      Status st = DecodePointPayload(item.payload, &point);
      if (!st.ok()) {
        EncodeStatusPayload(kStatusMalformed, st.message(), &payload);
        break;
      }
      auto id = index_->Insert(point);
      if (id.ok()) {
        EncodeInsertResultPayload(*id, &payload);
      } else {
        EncodeStatusPayload(kStatusError, id.status().ToString(), &payload);
      }
      break;
    }
    case kReqDelete: {
      uint64_t id = 0;
      Status st = DecodeDeletePayload(item.payload, &id);
      if (!st.ok()) {
        EncodeStatusPayload(kStatusMalformed, st.message(), &payload);
        break;
      }
      st = index_->Delete(id);
      if (st.ok()) {
        EncodeStatusPayload(kStatusOk, "", &payload);
      } else {
        EncodeStatusPayload(kStatusError, st.ToString(), &payload);
      }
      break;
    }
    case kReqStatsJson:
      // Count this request as completed before snapshotting: the response
      // it carries then satisfies accepted == completed + rejected for a
      // requester probing an otherwise-quiescent server (the probe must
      // not observe itself as in flight).
      Count(completed_, m_completed_);
      EncodeStatsPayload(StatsJson(), &payload);
      WriteFrame(item.conn, resp_type, item.request_id, payload);
      RecordLatency(item);
      return;
    case kReqCheckpoint: {
      if (!index_->durable()) {
        EncodeStatusPayload(kStatusError, "index is not durable", &payload);
        break;
      }
      Status st = index_->Checkpoint();
      if (st.ok()) {
        EncodeStatusPayload(kStatusOk, "", &payload);
      } else {
        EncodeStatusPayload(kStatusError, st.ToString(), &payload);
      }
      break;
    }
    default:
      EncodeStatusPayload(kStatusMalformed, "unhandled type", &payload);
      break;
  }
  Respond(item, resp_type, payload);
}

void NNCellServer::Respond(const WorkItem& item, uint8_t resp_type,
                           const std::string& payload) {
  // Count before writing: a client that has observed the response must
  // already see it reflected in the conservation counters.
  Count(completed_, m_completed_);
  WriteFrame(item.conn, resp_type, item.request_id, payload);
  RecordLatency(item);
}

void NNCellServer::RespondStatus(const std::shared_ptr<Connection>& conn,
                                 uint8_t type, uint64_t request_id,
                                 uint8_t status, const std::string& message) {
  std::string payload;
  EncodeStatusPayload(status, message, &payload);
  WriteFrame(conn, type, request_id, payload);
}

void NNCellServer::WriteFrame(const std::shared_ptr<Connection>& conn,
                              uint8_t type, uint64_t request_id,
                              const std::string& payload) {
  std::string frame;
  EncodeFrame(type, request_id, payload, &frame);
  MutexLock lock(conn->write_mu);
  if (!conn->write_open) return;
  Status st = WriteFull(conn->fd, frame, kSendTimeoutSeconds);
  if (!st.ok()) {
    // The peer is gone or stuck past the send timeout; every later
    // response to this connection is skipped.
    conn->write_open = false;
  }
}

void NNCellServer::Count(std::atomic<uint64_t>& counter,
                         metrics::Counter* metric) {
  // The conservation counters are independent monotonic tallies: nothing
  // is published through them, and every quiescent read (test asserts,
  // the DRAINED line, STATS_JSON of an idle server) is already ordered by
  // a thread join or the queue mutex hand-off.
  // nncell-lint: allow(relaxed-atomics) pure tally, reads ordered by join/mutex
  counter.fetch_add(1, std::memory_order_relaxed);
  NNCELL_METRIC_COUNT(metric, 1);
}

void NNCellServer::RecordLatency(const WorkItem& item) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - item.enqueued)
                      .count();
  if (IsQueryType(item.type)) {
    NNCELL_METRIC_RECORD(m_latency_query_, us);
  } else if (item.type == kReqInsert || item.type == kReqDelete ||
             item.type == kReqCheckpoint) {
    NNCELL_METRIC_RECORD(m_latency_write_, us);
  }
}

std::string NNCellServer::StatsJson() const {
  size_t depth = 0;
  {
    MutexLock lock(queue_mu_);
    depth = queue_.size();
  }
  size_t open = 0;
  {
    MutexLock lock(conns_mu_);
    open = conns_.size();
  }
  std::string out = "{\"server\":{";
  out += "\"accepted\":" + std::to_string(accepted());
  out += ",\"completed\":" + std::to_string(completed());
  out += ",\"connections_open\":" + std::to_string(open);
  out += ",\"draining\":";
  out += draining_.load(std::memory_order_acquire) ? "1" : "0";
  out += ",\"kernel_dispatch\":\"";
  out += kernels::ActiveLevelName();
  out += "\"";
  out += ",\"malformed\":" + std::to_string(malformed());
  out += ",\"queue_depth\":" + std::to_string(depth);
  out += ",\"rejected\":" + std::to_string(rejected());
  out += "}";
  std::string shard = index_->ShardStatsJson();
  if (!shard.empty()) {
    out += ",\"shard\":";
    out += shard;
  }
  out += ",\"metrics\":";
  out += metrics::Registry::Global().SnapshotJson();
  out += "}";
  return out;
}

}  // namespace server
}  // namespace nncell
