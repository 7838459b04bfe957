#include "shard/shard_manifest.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "shard/shard_format.h"
#include "storage/byte_io.h"
#include "storage/fs_util.h"

namespace nncell {
namespace shard {

namespace {

// Evaluates a non-write failpoint site: kCrash exits the process, any
// other armed action fails the operation before it starts.
Status CheckSite(const char* name) {
  switch (failpoint::Check(name)) {
    case failpoint::Action::kOff:
      return Status::OK();
    case failpoint::Action::kCrash:
      failpoint::Crash();
    default:
      return Status::Internal(std::string("failpoint ") + name);
  }
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Internal(fs::ErrnoMessage("open dir " + dir));
  Status st = fs::FsyncFd(fd, "shard.dir_sync");
  ::close(fd);
  return st;
}

StatusOr<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Internal(fs::ErrnoMessage("opendir " + dir));
  }
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status RenamePath(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::Internal(
        fs::ErrnoMessage("rename " + from + " -> " + to));
  }
  return Status::OK();
}

}  // namespace

size_t ShardManifest::Route(double c) const {
  return static_cast<size_t>(
      std::upper_bound(cuts.begin(), cuts.end(), c) - cuts.begin());
}

double ShardManifest::SlabMinDistSq(size_t i, double c) const {
  double gap = 0.0;
  if (i > 0 && c < cuts[i - 1]) {
    gap = cuts[i - 1] - c;
  } else if (i + 1 < shard_count && c > cuts[i]) {
    gap = c - cuts[i];
  }
  return gap * gap;
}

Status ShardManifest::Validate() const {
  if (shard_count == 0 || shard_count > kMaxShards) {
    return Status::InvalidArgument("shard manifest: shard_count " +
                                   std::to_string(shard_count) +
                                   " outside [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (dim == 0) return Status::InvalidArgument("shard manifest: dim is 0");
  if (route_dim >= dim) {
    return Status::InvalidArgument("shard manifest: route_dim " +
                                   std::to_string(route_dim) +
                                   " >= dim " + std::to_string(dim));
  }
  if (cuts.size() != static_cast<size_t>(shard_count) - 1) {
    return Status::InvalidArgument("shard manifest: cut count mismatch");
  }
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (!(cuts[i] <= cuts[i + 1])) {
      return Status::InvalidArgument("shard manifest: cuts not sorted");
    }
  }
  for (double c : cuts) {
    if (!std::isfinite(c)) {
      return Status::InvalidArgument("shard manifest: non-finite cut");
    }
  }
  return Status::OK();
}

std::string EncodeManifest(const ShardManifest& m) {
  const size_t size =
      kShardManifestHeaderBytes + m.cuts.size() * sizeof(double) + 4;
  std::string out(size, '\0');
  ByteWriter w(reinterpret_cast<uint8_t*>(out.data()), size);
  w.Put<uint64_t>(kShardManifestMagic);
  w.Put<uint32_t>(kShardManifestVersion);
  w.Put<uint32_t>(m.shard_count);
  w.Put<uint64_t>(m.epoch);
  w.Put<uint32_t>(m.route_dim);
  w.Put<uint32_t>(m.dim);
  w.PutDoubles(m.cuts.data(), m.cuts.size());
  const uint32_t crc = Crc32c(out.data(), w.position());
  w.Put<uint32_t>(crc);
  return out;
}

StatusOr<ShardManifest> DecodeManifest(const std::string& bytes,
                                       const std::string& origin) {
  const std::string what = "shard manifest " + origin;
  if (bytes.size() < kShardManifestHeaderBytes + 4) {
    return Status::InvalidArgument(what + ": truncated (" +
                                   std::to_string(bytes.size()) + " bytes)");
  }
  ByteReader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  if (r.Get<uint64_t>() != kShardManifestMagic) {
    return Status::InvalidArgument(what + ": bad magic");
  }
  // Version skew is detected before the checksum: a future layout would
  // not CRC under this decoder, and the operator needs "wrong version",
  // not "corrupt file".
  const uint32_t version = r.Get<uint32_t>();
  if (version != kShardManifestVersion) {
    return Status::InvalidArgument(
        what + ": unsupported shard manifest version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kShardManifestVersion) + ")");
  }
  ShardManifest m;
  m.shard_count = r.Get<uint32_t>();
  m.epoch = r.Get<uint64_t>();
  m.route_dim = r.Get<uint32_t>();
  m.dim = r.Get<uint32_t>();
  if (m.shard_count == 0 || m.shard_count > kMaxShards) {
    return Status::InvalidArgument(what + ": corrupt shard_count " +
                                   std::to_string(m.shard_count));
  }
  const size_t expect = kShardManifestHeaderBytes +
                        (static_cast<size_t>(m.shard_count) - 1) *
                            sizeof(double) +
                        4;
  if (bytes.size() != expect) {
    return Status::InvalidArgument(
        what + ": size " + std::to_string(bytes.size()) + ", expected " +
        std::to_string(expect));
  }
  m.cuts.resize(m.shard_count - 1);
  r.GetDoubles(m.cuts.data(), m.cuts.size());
  const uint32_t stored = r.Get<uint32_t>();
  const uint32_t actual = Crc32c(bytes.data(), bytes.size() - 4);
  if (stored != actual) {
    return Status::InvalidArgument(what + ": checksum mismatch");
  }
  Status st = m.Validate();
  if (!st.ok()) return Status::InvalidArgument(origin + ": " + st.message());
  return m;
}

Status WriteManifest(const std::string& path, const ShardManifest& m) {
  NNCELL_CHECK(m.Validate().ok());
  return fs::WriteFileAtomic(path, EncodeManifest(m));
}

StatusOr<ShardManifest> LoadManifest(const std::string& path) {
  if (!fs::PathExists(path)) {
    return Status::NotFound("no shard manifest at " + path);
  }
  StatusOr<std::string> bytes = fs::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeManifest(*bytes, path);
}

Status WriteRouterSnapshot(const std::string& path, const RouterSnapshot& s) {
  const size_t size = kRouterSnapshotHeaderBytes +
                      s.entries.size() * kRouterSnapshotEntryBytes + 4;
  std::string out(size, '\0');
  ByteWriter w(reinterpret_cast<uint8_t*>(out.data()), size);
  w.Put<uint64_t>(kRouterSnapshotMagic);
  w.Put<uint32_t>(kRouterSnapshotVersion);
  w.Put<uint64_t>(s.covered_lsn);
  w.Put<uint64_t>(static_cast<uint64_t>(s.entries.size()));
  for (const RouterEntry& e : s.entries) {
    w.Put<uint32_t>(e.shard);
    w.Put<uint64_t>(e.local);
    w.Put<uint8_t>(e.alive ? 1 : 0);
  }
  const uint32_t crc = Crc32c(out.data(), w.position());
  w.Put<uint32_t>(crc);
  return fs::WriteFileAtomic(path, out);
}

StatusOr<RouterSnapshot> LoadRouterSnapshot(const std::string& path) {
  if (!fs::PathExists(path)) {
    return Status::NotFound("no router snapshot at " + path);
  }
  StatusOr<std::string> read = fs::ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& bytes = *read;
  const std::string what = "router snapshot " + path;
  if (bytes.size() < kRouterSnapshotHeaderBytes + 4) {
    return Status::InvalidArgument(what + ": truncated");
  }
  ByteReader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  if (r.Get<uint64_t>() != kRouterSnapshotMagic) {
    return Status::InvalidArgument(what + ": bad magic");
  }
  const uint32_t version = r.Get<uint32_t>();
  if (version != kRouterSnapshotVersion) {
    return Status::InvalidArgument(what + ": unsupported version " +
                                   std::to_string(version));
  }
  RouterSnapshot s;
  s.covered_lsn = r.Get<uint64_t>();
  const uint64_t count = r.Get<uint64_t>();
  const size_t expect =
      kRouterSnapshotHeaderBytes + count * kRouterSnapshotEntryBytes + 4;
  if (count > (bytes.size() / kRouterSnapshotEntryBytes) ||
      bytes.size() != expect) {
    return Status::InvalidArgument(what + ": size mismatch");
  }
  const uint32_t actual = Crc32c(bytes.data(), bytes.size() - 4);
  s.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    RouterEntry e;
    e.shard = r.Get<uint32_t>();
    e.local = r.Get<uint64_t>();
    const uint8_t alive = r.Get<uint8_t>();
    if (alive > 1) {
      return Status::InvalidArgument(what + ": corrupt alive flag");
    }
    e.alive = alive == 1;
    s.entries.push_back(e);
  }
  if (r.Get<uint32_t>() != actual) {
    return Status::InvalidArgument(what + ": checksum mismatch");
  }
  return s;
}

std::string EncodeRouterInsert(uint64_t global_id, uint32_t shard) {
  std::string out(kRouterInsertPayloadBytes, '\0');
  ByteWriter w(reinterpret_cast<uint8_t*>(out.data()), out.size());
  w.Put<uint8_t>(kRouterOpInsert);
  w.Put<uint64_t>(global_id);
  w.Put<uint32_t>(shard);
  return out;
}

std::string EncodeRouterDelete(uint64_t global_id) {
  std::string out(kRouterDeletePayloadBytes, '\0');
  ByteWriter w(reinterpret_cast<uint8_t*>(out.data()), out.size());
  w.Put<uint8_t>(kRouterOpDelete);
  w.Put<uint64_t>(global_id);
  return out;
}

StatusOr<RouterLogOp> DecodeRouterOp(const std::vector<uint8_t>& payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("router log: empty record");
  }
  RouterLogOp op;
  op.op = payload[0];
  ByteReader r(payload.data(), payload.size());
  r.Get<uint8_t>();
  if (op.op == kRouterOpInsert) {
    if (payload.size() != kRouterInsertPayloadBytes) {
      return Status::InvalidArgument("router log: bad insert record size");
    }
    op.global_id = r.Get<uint64_t>();
    op.shard = r.Get<uint32_t>();
    return op;
  }
  if (op.op == kRouterOpDelete) {
    if (payload.size() != kRouterDeletePayloadBytes) {
      return Status::InvalidArgument("router log: bad delete record size");
    }
    op.global_id = r.Get<uint64_t>();
    return op;
  }
  return Status::InvalidArgument("router log: unknown op " +
                                 std::to_string(op.op));
}

std::string ShardDirName(size_t i) {
  return std::string(kShardDirPrefix) + std::to_string(i);
}

std::string JoinPath(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (a.back() == '/') return a + b;
  return a + "/" + b;
}

bool IsShardedDir(const std::string& path) {
  return fs::IsDirectory(path) &&
         fs::PathExists(JoinPath(path, kShardManifestFileName));
}

Status RemovePathRecursive(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::OK();
    return Status::Internal(fs::ErrnoMessage("lstat " + path));
  }
  if (S_ISDIR(st.st_mode)) {
    StatusOr<std::vector<std::string>> names = ListDir(path);
    if (!names.ok()) return names.status();
    for (const std::string& n : *names) {
      Status rm = RemovePathRecursive(JoinPath(path, n));
      if (!rm.ok()) return rm;
    }
    if (::rmdir(path.c_str()) != 0) {
      return Status::Internal(fs::ErrnoMessage("rmdir " + path));
    }
    return Status::OK();
  }
  if (::unlink(path.c_str()) != 0) {
    return Status::Internal(fs::ErrnoMessage("unlink " + path));
  }
  return Status::OK();
}

Status DiscardStagingIfPresent(const std::string& dir, bool* removed) {
  if (removed != nullptr) *removed = false;
  const std::string staging = JoinPath(dir, kRebalanceStagingDirName);
  if (!fs::PathExists(staging)) return Status::OK();
  NNCELL_RETURN_IF_ERROR(RemovePathRecursive(staging));
  NNCELL_RETURN_IF_ERROR(SyncDir(dir));
  if (removed != nullptr) *removed = true;
  return Status::OK();
}

Status CommitStagedInstall(const std::string& dir) {
  NNCELL_RETURN_IF_ERROR(CheckSite("shard.rebalance.commit"));
  NNCELL_RETURN_IF_ERROR(
      RenamePath(JoinPath(dir, kRebalanceStagingDirName),
                 JoinPath(dir, kRebalanceInstallDirName)));
  return SyncDir(dir);
}

Status FinalizeInstallIfPresent(const std::string& dir, bool* finalized) {
  if (finalized != nullptr) *finalized = false;
  const std::string install = JoinPath(dir, kRebalanceInstallDirName);
  if (!fs::PathExists(install)) return Status::OK();
  NNCELL_RETURN_IF_ERROR(CheckSite("shard.rebalance.finalize"));

  const std::string staged_manifest =
      JoinPath(install, kShardManifestFileName);
  if (!fs::PathExists(staged_manifest)) {
    // The manifest moves last, so its absence means every other staged
    // entry is already in place; only the marker dir is left to drop.
    NNCELL_RETURN_IF_ERROR(RemovePathRecursive(install));
    NNCELL_RETURN_IF_ERROR(SyncDir(dir));
    if (finalized != nullptr) *finalized = true;
    return Status::OK();
  }
  StatusOr<ShardManifest> m = LoadManifest(staged_manifest);
  if (!m.ok()) return m.status();

  // Replace the shard directories. A staged shard-i displaces the old one;
  // an old shard-i with no staged replacement and i >= the new count was
  // merged away. Entries already moved by an interrupted earlier attempt
  // have no staged copy left and are kept as they are.
  size_t max_old = 0;
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  const std::string prefix = kShardDirPrefix;
  for (const std::string& n : *names) {
    if (n.compare(0, prefix.size(), prefix) == 0) {
      max_old = std::max(max_old, static_cast<size_t>(
                                      std::atoll(n.c_str() + prefix.size())) +
                                      1);
    }
  }
  const size_t upper = std::max<size_t>(max_old, m->shard_count);
  for (size_t i = 0; i < upper; ++i) {
    const std::string staged = JoinPath(install, ShardDirName(i));
    const std::string dst = JoinPath(dir, ShardDirName(i));
    if (fs::PathExists(staged)) {
      NNCELL_RETURN_IF_ERROR(RemovePathRecursive(dst));
      NNCELL_RETURN_IF_ERROR(RenamePath(staged, dst));
    } else if (i >= m->shard_count) {
      NNCELL_RETURN_IF_ERROR(RemovePathRecursive(dst));
    }
  }

  // Router state: staged snapshot replaces the old one, and the log it
  // fully covers is deleted (Open recreates an empty log based at the
  // snapshot's covered LSN).
  const std::string staged_snap = JoinPath(install, kRouterSnapshotFileName);
  if (fs::PathExists(staged_snap)) {
    NNCELL_RETURN_IF_ERROR(
        RenamePath(staged_snap, JoinPath(dir, kRouterSnapshotFileName)));
  }
  NNCELL_RETURN_IF_ERROR(
      RemovePathRecursive(JoinPath(dir, kRouterLogFileName)));
  NNCELL_RETURN_IF_ERROR(
      RenamePath(staged_manifest, JoinPath(dir, kShardManifestFileName)));
  NNCELL_RETURN_IF_ERROR(RemovePathRecursive(install));
  NNCELL_RETURN_IF_ERROR(SyncDir(dir));
  if (finalized != nullptr) *finalized = true;
  return Status::OK();
}

}  // namespace shard
}  // namespace nncell
