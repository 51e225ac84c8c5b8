#include "common/snapshot.hpp"

#include <cstdio>

namespace cr {

namespace {

constexpr std::size_t kHeaderSize = 32;
constexpr char kMagic[6] = {'C', 'R', 'S', 'N', 'A', 'P'};

void put_u32(std::uint8_t* out, std::uint32_t v) { std::memcpy(out, &v, sizeof(v)); }
void put_u64(std::uint8_t* out, std::uint64_t v) { std::memcpy(out, &v, sizeof(v)); }
std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}
std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n, std::uint64_t hash) {
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string fnv1a_hex16(std::string_view bytes) {
  return hex16(fnv1a64(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

std::vector<std::uint8_t> SnapshotWriter::seal(std::uint32_t version) const {
  std::vector<std::uint8_t> blob(kHeaderSize + buf_.size(), 0);
  std::memcpy(blob.data(), kMagic, sizeof(kMagic));
  put_u32(blob.data() + 8, version);
  put_u64(blob.data() + 16, buf_.size());
  put_u64(blob.data() + 24, fnv1a64(buf_.data(), buf_.size()));
  std::memcpy(blob.data() + kHeaderSize, buf_.data(), buf_.size());
  return blob;
}

SnapshotReader::SnapshotReader(const std::uint8_t* data, std::size_t size,
                               std::uint32_t expected_version) {
  if (size < kHeaderSize) {
    error_ = "snapshot: truncated header (" + std::to_string(size) + " bytes, need " +
             std::to_string(kHeaderSize) + ")";
    return;
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    error_ = "snapshot: bad magic (not a CRSNAP blob)";
    return;
  }
  const std::uint32_t version = get_u32(data + 8);
  if (version != expected_version) {
    error_ = "snapshot: schema version mismatch (blob v" + std::to_string(version) +
             ", expected v" + std::to_string(expected_version) + ")";
    return;
  }
  const std::uint64_t payload_size = get_u64(data + 16);
  if (payload_size != size - kHeaderSize) {
    error_ = "snapshot: truncated payload (header claims " + std::to_string(payload_size) +
             " bytes, have " + std::to_string(size - kHeaderSize) + ")";
    return;
  }
  const std::uint64_t checksum = get_u64(data + 24);
  const std::uint64_t actual = fnv1a64(data + kHeaderSize, size - kHeaderSize);
  if (checksum != actual) {
    error_ = "snapshot: checksum mismatch (blob is corrupted)";
    return;
  }
  payload_ = data + kHeaderSize;
  size_ = size - kHeaderSize;
}

void SnapshotReader::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

bool SnapshotReader::take(void* out, std::size_t n, const char* field) {
  if (!error_.empty()) return false;
  if (size_ - pos_ < n) {
    fail("snapshot: truncated reading " + std::string(field) + " at payload offset " +
         std::to_string(pos_));
    return false;
  }
  std::memcpy(out, payload_ + pos_, n);
  pos_ += n;
  return true;
}

std::uint8_t SnapshotReader::u8(const char* field) {
  std::uint8_t v = 0;
  take(&v, sizeof(v), field);
  return v;
}

std::uint32_t SnapshotReader::u32(const char* field) {
  std::uint32_t v = 0;
  take(&v, sizeof(v), field);
  return v;
}

std::uint64_t SnapshotReader::u64(const char* field) {
  std::uint64_t v = 0;
  take(&v, sizeof(v), field);
  return v;
}

double SnapshotReader::f64(const char* field) {
  std::uint64_t bits = u64(field);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool SnapshotReader::check_count(std::uint64_t count, std::size_t elem_size, const char* field) {
  if (!error_.empty()) return false;
  const std::uint64_t remaining = size_ - pos_;
  if (elem_size != 0 && (count > remaining / elem_size)) {
    fail("snapshot: implausible count for " + std::string(field) + " (" +
         std::to_string(count) + " x " + std::to_string(elem_size) + " bytes, only " +
         std::to_string(remaining) + " remain)");
    return false;
  }
  return true;
}

void SnapshotReader::expect_end() {
  if (!error_.empty()) return;
  if (pos_ != size_)
    fail("snapshot: " + std::to_string(size_ - pos_) + " trailing bytes after the last field");
}

}  // namespace cr
