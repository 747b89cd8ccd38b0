// StreamBuffer: the send side of a byte stream, addressed by stream offset.
//
// Both transports keep what the application wrote until it may no longer be
// retransmitted. One growable vector per stream made every write that
// crossed its capacity copy the whole stream (a 20 MB object lived as 16 MiB
// and 32 MiB copies at once), and TCP's release of acknowledged bytes moved
// the rest of the buffer down. Here the bytes live in blocks of at most
// kBlockBytes that never move once written:
//   * every block but the last is full and blocks start at multiples of
//     kBlockBytes, so an offset maps to its block in O(1);
//   * append() fills the last block and starts new ones, never touching the
//     bytes already stored;
//   * release_before() frees whole blocks below an offset (TCP, as ACKs
//     arrive; QUIC keeps every byte until the stream dies). A released
//     buffer therefore holds less than one block beyond what the caller
//     still needs, which is why blocks are 32 KiB and not larger.
// The first held block is inline, so a stream whose data fits one block
// (most request/response streams) costs one allocation, as a plain Bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace longlook::util {

class StreamBuffer {
 public:
  static constexpr std::size_t kBlockBytes = 32 * 1024;

  // Appends `data` at end_offset().
  void append(BytesView data);
  // The `len` bytes at [offset, offset + len), which must be held
  // (begin_offset() <= offset, offset + len <= end_offset()).
  Bytes copy_out(std::uint64_t offset, std::size_t len) const;
  // Frees every full block that ends at or below `offset`. A partly filled
  // last block is kept even if `offset` passes it.
  void release_before(std::uint64_t offset);

  // First stream offset still held (a multiple of kBlockBytes).
  std::uint64_t begin_offset() const { return base_; }
  // One past the last byte appended.
  std::uint64_t end_offset() const {
    return base_ + rest_.size() * kBlockBytes +
           (rest_.empty() ? first_.size() : rest_.back().size());
  }
  // Bytes held: [begin_offset(), end_offset()).
  std::size_t size() const {
    return static_cast<std::size_t>(end_offset() - base_);
  }

 private:
  // The i-th held block; block i starts at base_ + i * kBlockBytes.
  Bytes& block(std::size_t i) { return i == 0 ? first_ : rest_[i - 1]; }
  const Bytes& block(std::size_t i) const {
    return i == 0 ? first_ : rest_[i - 1];
  }

  Bytes first_;              // held block 0, inline
  std::vector<Bytes> rest_;  // held blocks 1.., each full but the last
  std::uint64_t base_ = 0;   // stream offset of first_
};

}  // namespace longlook::util
