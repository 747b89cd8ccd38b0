#include "util/bytes.h"

#include "util/check.h"

namespace longlook {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::varint(std::uint64_t v) {
  if (v > kVarintMax) v = kVarintMax;
  if (v < (1u << 6)) {
    buf_.push_back(static_cast<std::uint8_t>(v));
  } else if (v < (1u << 14)) {
    buf_.push_back(static_cast<std::uint8_t>(0x40 | (v >> 8)));
    buf_.push_back(static_cast<std::uint8_t>(v));
  } else if (v < (1u << 30)) {
    buf_.push_back(static_cast<std::uint8_t>(0x80 | (v >> 24)));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  } else {
    buf_.push_back(static_cast<std::uint8_t>(0xC0 | (v >> 56)));
    for (int shift = 48; shift >= 0; shift -= 8) {
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  }
}

std::size_t varint_length(std::uint64_t v) {
  if (v < (1u << 6)) return 1;
  if (v < (1u << 14)) return 2;
  if (v < (1u << 30)) return 4;
  return 8;
}

std::optional<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return std::nullopt;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> ByteReader::u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

std::optional<std::uint64_t> ByteReader::varint() {
  if (remaining() < 1) return std::nullopt;
  const std::uint8_t first = data_[pos_];
  const std::size_t len = std::size_t{1} << (first >> 6);
  if (remaining() < len) return std::nullopt;
  std::uint64_t v = first & 0x3F;
  for (std::size_t i = 1; i < len; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += len;
  return v;
}

std::optional<Bytes> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

bool ByteReader::skip(std::size_t n) {
  if (remaining() < n) return false;
  pos_ += n;
  return true;
}

namespace util {
namespace {

// Non-const on purpose: a const array goes to .rodata and is paged in from
// the binary; zero-initialised writable storage goes to .bss and is never
// backed while nothing writes it. Only read through zero_bytes().
alignas(64) std::uint8_t zero_region[kZeroBytesMax];

}  // namespace

BytesView zero_bytes(std::size_t n) {
  LL_CHECK(n <= kZeroBytesMax)
      << "zero_bytes(" << n << ") exceeds the " << kZeroBytesMax
      << "-byte zero region";
  return BytesView(zero_region, n);
}

}  // namespace util
}  // namespace longlook
