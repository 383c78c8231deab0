#include "storage/snapshot_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "storage/crc32.h"

namespace slimfast {

namespace {

// "SLFSNAP1" / "1PANSFLS" in little-endian byte order.
constexpr uint64_t kSnapshotMagic = 0x3150414E53464C53ULL;
constexpr uint64_t kSnapshotFooter = 0x534C46534E415031ULL;

Status WriteFileDurably(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status failed = Status::IOError("cannot write " + path + ": " +
                                      std::strerror(errno));
      ::close(fd);
      return failed;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status failed = Status::IOError("cannot fsync " + path + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return failed;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

Status WriteSnapshotFile(const std::string& path,
                         const std::string& payload) {
  std::string framed;
  framed.reserve(payload.size() + 20);
  AppendU64(&framed, kSnapshotMagic);
  framed += payload;
  AppendU32(&framed, Crc32(payload.data(), payload.size()));
  AppendU64(&framed, kSnapshotFooter);

  const std::string tmp = path + ".tmp";
  SLIMFAST_RETURN_NOT_OK(WriteFileDurably(tmp, framed));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           ec.message());
  }
  // Make the rename itself durable.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  if (!dir.empty()) {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  return Status::OK();
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  if (!std::filesystem::exists(path)) {
    return Status::NotFound("no snapshot at " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("cannot read " + path);
  if (bytes.size() < 20) {
    return Status::IOError("snapshot " + path + " is truncated");
  }
  ByteReader header(bytes.data(), 8);
  uint64_t magic = 0;
  header.ReadU64(&magic);
  if (magic != kSnapshotMagic) {
    return Status::IOError("snapshot " + path + " has a bad magic");
  }
  ByteReader trailer(bytes.data() + bytes.size() - 12, 12);
  uint32_t crc = 0;
  uint64_t footer = 0;
  trailer.ReadU32(&crc);
  trailer.ReadU64(&footer);
  if (footer != kSnapshotFooter) {
    return Status::IOError("snapshot " + path +
                           " is missing its footer (torn write?)");
  }
  const size_t payload_size = bytes.size() - 20;
  if (Crc32(bytes.data() + 8, payload_size) != crc) {
    return Status::IOError("snapshot " + path + " fails its checksum");
  }
  return bytes.substr(8, payload_size);
}

void AppendStoreColumns(const ObservationStore& store, std::string* out) {
  AppendI32(out, store.num_sources());
  AppendI32(out, store.num_objects());
  AppendI32(out, store.num_values());
  // The objects column (each claim's object id) is expanded from the
  // offsets; the store does not hold it.
  AppendU64(out, static_cast<uint64_t>(store.num_observations()));
  for (ObjectId o = 0; o < store.num_objects(); ++o) {
    const IndexRange claims = store.ObjectRange(o);
    for (int64_t i = claims.begin; i < claims.end; ++i) AppendI32(out, o);
  }
  AppendArray(out, store.sources());
  AppendArray(out, store.values());
  AppendArray(out, store.object_offsets());
  AppendArray(out, store.truth());
  AppendU64(out, store.content_fingerprint());
}

Result<ObservationStore> ReadStoreColumns(ByteReader* in) {
  ObservationStore::Columns columns;
  if (!in->ReadI32(&columns.num_sources) ||
      !in->ReadI32(&columns.num_objects) ||
      !in->ReadI32(&columns.num_values) ||
      !ReadArray(in, &columns.objects) ||
      !ReadArray(in, &columns.sources) ||
      !ReadArray(in, &columns.values) ||
      !ReadArray(in, &columns.object_offsets) ||
      !ReadArray(in, &columns.truth) || !in->ReadU64(&columns.fingerprint)) {
    return Status::IOError("snapshot store sections are truncated");
  }
  return ObservationStore::FromColumns(std::move(columns));
}

}  // namespace slimfast
