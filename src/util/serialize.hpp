// Little-endian binary serialization for study snapshots.
//
// ByteWriter appends fixed-width integers, strings and blobs to a byte
// buffer; ByteReader consumes the same encoding and throws
// SerializeError on any truncation or bound violation, so corrupt or
// version-skewed snapshots fail loudly instead of reading garbage. The
// encoding is explicitly little-endian byte-by-byte (not memcpy of host
// integers), so snapshots are portable across hosts.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tts::util {

class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// Length-prefixed string (u32 length + raw bytes).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// `n`, once the unread bytes are known to hold `n` elements of at least
  /// `min_bytes` each: a corrupt count is rejected here, before anything
  /// is reserved for it.
  std::uint64_t count(std::uint64_t n, std::size_t min_bytes) const {
    if (n > remaining() / min_bytes)
      throw SerializeError("snapshot count " + std::to_string(n) +
                           " exceeds the " + std::to_string(remaining()) +
                           " bytes left");
    return n;
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n)
      throw SerializeError("snapshot truncated: need " + std::to_string(n) +
                           " bytes, have " + std::to_string(remaining()));
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace tts::util
