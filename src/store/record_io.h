// Fixed-layout record serialization for the durable store.
//
// WAL payloads and snapshot bodies are built from a handful of primitive
// fields (little-endian integers, length-prefixed strings/byte runs).
// These two helpers keep every client's encode and decode paths symmetric
// without dragging in a serialization framework: a RecordWriter appends
// fields to a byte vector, a RecordReader consumes them in the same order
// and turns any overrun or trailing garbage into a visible failure instead
// of undefined behaviour — the property the recovery path depends on when
// it is fed a corrupted payload that happened to pass the frame CRC.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace eric::store {

/// Stores a 32-bit integer little-endian into a fixed buffer (the
/// file-header/frame codec shared by the WAL and snapshot formats).
inline void StoreLe32(uint32_t value, uint8_t* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(value >> (8 * i));
}

/// Stores a 64-bit integer little-endian into a fixed buffer.
inline void StoreLe64(uint64_t value, uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(value >> (8 * i));
}

/// Loads a little-endian 32-bit integer from a fixed buffer.
inline uint32_t LoadLe32(const uint8_t* in) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<uint32_t>(in[i]) << (8 * i);
  return value;
}

/// Loads a little-endian 64-bit integer from a fixed buffer.
inline uint64_t LoadLe64(const uint8_t* in) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<uint64_t>(in[i]) << (8 * i);
  return value;
}

/// FNV-1a 64-bit over a byte span — the store's configuration/identity
/// fingerprint hash (not cryptographic; collisions only misroute an
/// operator error into a later, still-safe failure).
inline uint64_t Fnv1a64(std::span<const uint8_t> data) {
  uint64_t hash = 1469598103934665603ull;
  for (uint8_t byte : data) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Appends little-endian primitive fields to a byte buffer.
class RecordWriter {
 public:
  /// Appends one byte.
  void U8(uint8_t value) { out_.push_back(value); }

  /// Appends a 32-bit little-endian integer.
  void U32(uint32_t value) { AppendLe(value, 4); }

  /// Appends a 64-bit little-endian integer.
  void U64(uint64_t value) { AppendLe(value, 8); }

  /// Appends a u32 length prefix followed by the string bytes.
  void Str(std::string_view text) {
    U32(static_cast<uint32_t>(text.size()));
    Append(text.data(), text.size());
  }

  /// Appends a u32 length prefix followed by the raw bytes.
  void Bytes(std::span<const uint8_t> bytes) {
    U32(static_cast<uint32_t>(bytes.size()));
    Append(bytes.data(), bytes.size());
  }

  /// The serialized record so far.
  const std::vector<uint8_t>& bytes() const { return out_; }

  /// Moves the serialized record out of the writer.
  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  void AppendLe(uint64_t value, int width) {
    uint8_t le[8] = {};
    for (int i = 0; i < width; ++i) {
      le[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    Append(le, static_cast<size_t>(width));
  }

  // One resize + memcpy per field. (Per-byte push_back followed by a
  // range insert makes GCC 12 report false -Wstringop-overflow writes
  // once the writer is inlined into a caller.)
  void Append(const void* data, size_t size) {
    if (size == 0) return;
    const size_t at = out_.size();
    out_.resize(at + size);
    std::memcpy(out_.data() + at, data, size);
  }

  std::vector<uint8_t> out_;
};

/// Consumes the fields a RecordWriter produced, in the same order.
///
/// Every accessor returns false (and poisons the reader) on overrun, so a
/// decode loop can run unchecked and test `ok()` once at the end.
class RecordReader {
 public:
  /// Wraps `bytes`; the reader never copies or outlives the span.
  explicit RecordReader(std::span<const uint8_t> bytes) : data_(bytes) {}

  /// Reads one byte.
  bool U8(uint8_t* value) {
    if (!Ensure(1)) return false;
    *value = data_[pos_++];
    return true;
  }

  /// Reads a 32-bit little-endian integer.
  bool U32(uint32_t* value) {
    uint64_t wide = 0;
    if (!ReadLe(&wide, 4)) return false;
    *value = static_cast<uint32_t>(wide);
    return true;
  }

  /// Reads a 64-bit little-endian integer.
  bool U64(uint64_t* value) { return ReadLe(value, 8); }

  /// Reads a u32-length-prefixed string.
  bool Str(std::string* text) {
    uint32_t length = 0;
    if (!U32(&length) || !Ensure(length)) return false;
    text->assign(reinterpret_cast<const char*>(data_.data() + pos_), length);
    pos_ += length;
    return true;
  }

  /// Reads a u32-length-prefixed byte run.
  bool Bytes(std::vector<uint8_t>* bytes) {
    uint32_t length = 0;
    if (!U32(&length) || !Ensure(length)) return false;
    bytes->assign(data_.begin() + static_cast<long>(pos_),
                  data_.begin() + static_cast<long>(pos_ + length));
    pos_ += length;
    return true;
  }

  /// True while no accessor has overrun the payload.
  bool ok() const { return ok_; }
  /// Payload bytes not yet consumed (0 once poisoned) — the bound a
  /// decoder checks an untrusted element count against before it
  /// allocates for it.
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  /// True when every payload byte has been consumed (and no overrun).
  bool Exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Ensure(size_t need) {
    if (!ok_ || data_.size() - pos_ < need) {
      ok_ = false;
      return false;
    }
    return true;
  }

  bool ReadLe(uint64_t* value, int width) {
    if (!Ensure(static_cast<size_t>(width))) return false;
    uint64_t out = 0;
    for (int i = 0; i < width; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
             << (8 * i);
    }
    pos_ += static_cast<size_t>(width);
    *value = out;
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace eric::store
