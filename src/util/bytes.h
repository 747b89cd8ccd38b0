// Byte-buffer primitives used by the wire formats (quic/, tcp/).
//
// ByteWriter appends big-endian integers and QUIC-style varints to a growable
// buffer; ByteReader consumes them from a span and reports truncation instead
// of crashing, so malformed packets surface as decode errors.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace longlook {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  // Adopts an existing (empty) buffer — the hook for recycling packet
  // payload blocks through util::BytesPool instead of allocating per encode.
  explicit ByteWriter(Bytes&& initial) : buf_(std::move(initial)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  // RFC 9000-style variable-length integer (1/2/4/8 bytes, 2-bit prefix).
  // Values above 2^62-1 are a programming error and are clamped in release.
  void varint(std::uint64_t v);

  void bytes(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  void str(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  // Appends `n` zero bytes (payload padding for synthetic bodies).
  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  std::size_t size() const { return buf_.size(); }
  BytesView view() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  const Bytes& data() const { return buf_; }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint16_t> u16();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::uint64_t> varint();
  std::optional<Bytes> bytes(std::size_t n);
  // Skips n bytes; false on truncation.
  bool skip(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }
  BytesView rest() const { return data_.subspan(pos_); }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

// Length of the varint encoding of v (1, 2, 4 or 8).
std::size_t varint_length(std::uint64_t v);

constexpr std::uint64_t kVarintMax = (std::uint64_t{1} << 62) - 1;

namespace util {

// Size of the process-wide zero region behind zero_bytes(): two of the
// 512 KiB body chunks the object service and the upload pump write.
inline constexpr std::size_t kZeroBytesMax = 1024 * 1024;

// A view of `n` zero bytes, n <= kZeroBytesMax (checked). Synthetic bodies
// are all zero, so writers take them from here instead of zero-filling a
// fresh buffer per write. The region is zero-initialised and never written,
// so it stays in .bss and its pages are never backed.
BytesView zero_bytes(std::size_t n);

}  // namespace util
}  // namespace longlook
