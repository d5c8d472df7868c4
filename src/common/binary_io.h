#ifndef INFLUMAX_COMMON_BINARY_IO_H_
#define INFLUMAX_COMMON_BINARY_IO_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace influmax {

/// Little binary container format shared by the graph and action-log
/// serializers: an 8-byte magic, a format version, then typed sections.
/// Intended for fast local round-trips of generated datasets (the text
/// formats stay the interchange format); files are not portable across
/// endianness.
class BinaryWriter {
 public:
  /// Opens `path` for truncation-writing; check status() before use.
  BinaryWriter(const std::string& path, std::uint64_t magic,
               std::uint32_t version);

  const Status& status() const { return status_; }

  void WriteU32(std::uint32_t value) { WriteRaw(&value, sizeof(value)); }
  void WriteU64(std::uint64_t value) { WriteRaw(&value, sizeof(value)); }
  void WriteDouble(double value) { WriteRaw(&value, sizeof(value)); }

  /// Length-prefixed vector of trivially copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(values.size());
    if (!values.empty()) WriteRaw(values.data(), values.size() * sizeof(T));
  }

  /// Bytes successfully queued so far (including magic + version). Format
  /// writers with fixed-layout headers (the credit snapshot) use this to
  /// verify section offsets and alignment as they write.
  std::uint64_t bytes_written() const { return bytes_written_; }

  /// Writes zero bytes until bytes_written() is a multiple of `alignment`
  /// (power of two, <= 8). Keeps 8-byte payloads mmap-aligned.
  void PadToAlignment(std::uint32_t alignment);

  /// Flushes and reports any accumulated I/O error.
  Status Finish();

  /// Names the failpoint consulted on every subsequent write (fault
  /// injection, docs/durability.md): torn-write specs cut the stream at
  /// their byte offset. Inert unless the build compiles failpoints in
  /// AND the named point is armed; `name` must outlive the writer.
  void set_failpoint(const char* name) { failpoint_ = name; }

 private:
  void WriteRaw(const void* data, std::size_t bytes);

  std::ofstream out_;
  Status status_;
  std::uint64_t bytes_written_ = 0;
  const char* failpoint_ = nullptr;
};

/// Reader counterpart; validates magic and version on open.
class BinaryReader {
 public:
  BinaryReader(const std::string& path, std::uint64_t expected_magic,
               std::uint32_t expected_version);

  const Status& status() const { return status_; }

  std::uint32_t ReadU32() {
    std::uint32_t value = 0;
    ReadRaw(&value, sizeof(value));
    return value;
  }
  std::uint64_t ReadU64() {
    std::uint64_t value = 0;
    ReadRaw(&value, sizeof(value));
    return value;
  }
  double ReadDouble() {
    double value = 0;
    ReadRaw(&value, sizeof(value));
    return value;
  }

  /// Reads a length-prefixed vector; enforces `max_elements` so corrupt
  /// length fields cannot trigger huge allocations.
  template <typename T>
  std::vector<T> ReadVector(std::uint64_t max_elements) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = ReadU64();
    if (count > max_elements) {
      Fail("vector length " + std::to_string(count) + " at byte offset " +
           std::to_string(bytes_read_ - sizeof(std::uint64_t)) +
           " exceeds limit " + std::to_string(max_elements));
      return {};
    }
    std::vector<T> values(count);
    if (count > 0) ReadRaw(values.data(), count * sizeof(T));
    return values;
  }

  /// Bytes successfully consumed so far (including magic + version).
  std::uint64_t bytes_read() const { return bytes_read_; }

  /// OK iff everything read so far was present and well-formed.
  Status Finish() const { return status_; }

  /// Failpoint consulted on every subsequent read (docs/durability.md);
  /// error specs surface as IoError so retry policies treat the
  /// injection as the transient it simulates.
  void set_failpoint(const char* name) { failpoint_ = name; }

 private:
  void ReadRaw(void* data, std::size_t bytes);
  void Fail(const std::string& message);

  std::ifstream in_;
  std::string path_;
  Status status_;
  std::uint64_t bytes_read_ = 0;
  const char* failpoint_ = nullptr;
};

/// BinaryWriter's typed-section API over an in-memory byte buffer
/// instead of a file: the wire protocol (src/net/wire.h) serializes
/// frame payloads with it, so frames speak the same section grammar as
/// every on-disk container. No magic/version prelude — a frame's header
/// carries both — and no failpoint hook (the socket layer tears whole
/// frames; mid-payload cuts are indistinguishable on a stream).
class BufferWriter {
 public:
  void WriteU32(std::uint32_t value) { WriteRaw(&value, sizeof(value)); }
  void WriteU64(std::uint64_t value) { WriteRaw(&value, sizeof(value)); }
  void WriteDouble(double value) { WriteRaw(&value, sizeof(value)); }

  /// Length-prefixed vector of trivially copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(values.size());
    if (!values.empty()) WriteRaw(values.data(), values.size() * sizeof(T));
  }

  /// Length-prefixed byte string (error messages on the wire).
  void WriteString(const std::string& value) {
    WriteU64(value.size());
    if (!value.empty()) WriteRaw(value.data(), value.size());
  }

  std::uint64_t bytes_written() const { return buffer_.size(); }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  void WriteRaw(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + bytes);
  }

  std::vector<std::uint8_t> buffer_;
};

/// Reader counterpart over a borrowed byte span (a received frame's
/// payload; the span must outlive the reader). Same defensive contract
/// as BinaryReader: short reads fail with the byte offset, and every
/// length prefix is validated against both a caller bound and the bytes
/// actually present BEFORE any allocation — a hostile frame cannot make
/// the receiver resize a vector it could never fill.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  const Status& status() const { return status_; }

  std::uint32_t ReadU32() {
    std::uint32_t value = 0;
    ReadRaw(&value, sizeof(value));
    return value;
  }
  std::uint64_t ReadU64() {
    std::uint64_t value = 0;
    ReadRaw(&value, sizeof(value));
    return value;
  }
  double ReadDouble() {
    double value = 0;
    ReadRaw(&value, sizeof(value));
    return value;
  }

  /// Length-prefixed vector bounded by `max_elements` and by the bytes
  /// remaining in the buffer.
  template <typename T>
  std::vector<T> ReadVector(std::uint64_t max_elements) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = ReadU64();
    if (!status_.ok()) return {};
    if (count > max_elements) {
      Fail("vector length " + std::to_string(count) + " at byte offset " +
           std::to_string(offset_ - sizeof(std::uint64_t)) +
           " exceeds limit " + std::to_string(max_elements));
      return {};
    }
    // Divide, never multiply: count * sizeof(T) can wrap to a small (or
    // zero) value for hostile counts and sail past the remaining check.
    if (count > remaining() / sizeof(T)) {
      Fail("vector of " + std::to_string(count) + " elements at byte offset " +
           std::to_string(offset_ - sizeof(std::uint64_t)) +
           " exceeds the " + std::to_string(remaining()) +
           " bytes remaining");
      return {};
    }
    std::vector<T> values(count);
    if (count > 0) ReadRaw(values.data(), count * sizeof(T));
    return values;
  }

  /// Length-prefixed byte string bounded by `max_bytes` and the buffer.
  std::string ReadString(std::uint64_t max_bytes) {
    const std::uint64_t count = ReadU64();
    if (!status_.ok()) return {};
    if (count > max_bytes || count > remaining()) {
      Fail("string length " + std::to_string(count) + " at byte offset " +
           std::to_string(offset_ - sizeof(std::uint64_t)) +
           " exceeds limit " +
           std::to_string(std::min<std::uint64_t>(max_bytes, remaining())));
      return {};
    }
    std::string value(count, '\0');
    if (count > 0) ReadRaw(value.data(), count);
    return value;
  }

  std::uint64_t bytes_read() const { return offset_; }
  std::uint64_t remaining() const { return data_.size() - offset_; }

  /// OK iff everything read so far was present and well-formed.
  Status Finish() const { return status_; }

 private:
  void ReadRaw(void* data, std::size_t bytes) {
    if (!status_.ok()) return;
    if (bytes > remaining()) {
      Fail("short read of " + std::to_string(bytes) + " bytes at byte offset " +
           std::to_string(offset_) + " (only " + std::to_string(remaining()) +
           " remain)");
      return;
    }
    std::memcpy(data, data_.data() + offset_, bytes);
    offset_ += bytes;
  }

  void Fail(const std::string& message) {
    if (status_.ok()) status_ = Status::Corruption("frame payload: " + message);
  }

  std::span<const std::uint8_t> data_;
  Status status_;
  std::uint64_t offset_ = 0;
};

/// fsync(2) of `path`'s contents / of a directory's entry table. The
/// generation swap protocol (docs/durability.md) syncs every blob and
/// the manifest before the CURRENT flip, and the directory after it, so
/// a crash can never publish a pointer to bytes that might not survive
/// the crash. ofstream cannot express this, hence the by-path helpers.
Status SyncFileToDisk(const std::string& path);
Status SyncDirToDisk(const std::string& dir);

}  // namespace influmax

#endif  // INFLUMAX_COMMON_BINARY_IO_H_
