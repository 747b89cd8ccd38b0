#include "util/stream_buffer.h"

#include <algorithm>

#include "util/check.h"

namespace longlook::util {

void StreamBuffer::append(BytesView data) {
  while (!data.empty()) {
    Bytes* last = &block(rest_.size());
    if (last->size() == kBlockBytes) {
      // A stream that filled a block is a bulk stream: size the next one
      // whole instead of doubling into it.
      rest_.emplace_back();
      last = &rest_.back();
      last->reserve(kBlockBytes);
    }
    const std::size_t n = std::min(data.size(), kBlockBytes - last->size());
    if (last->size() + n > last->capacity()) {
      last->reserve(std::min(
          kBlockBytes, std::max(last->size() + n, 2 * last->capacity())));
    }
    last->insert(last->end(), data.begin(),
                 data.begin() + static_cast<std::ptrdiff_t>(n));
    data = data.subspan(n);
  }
}

Bytes StreamBuffer::copy_out(std::uint64_t offset, std::size_t len) const {
  LL_CHECK(offset >= base_ && offset + len <= end_offset())
      << "copy_out [" << offset << ", " << offset + len
      << ") outside the held bytes [" << base_ << ", " << end_offset() << ")";
  Bytes out;
  out.reserve(len);
  std::uint64_t rel = offset - base_;
  while (len > 0) {
    const Bytes& b = block(static_cast<std::size_t>(rel / kBlockBytes));
    const auto at = static_cast<std::ptrdiff_t>(rel % kBlockBytes);
    const std::size_t n =
        std::min(len, b.size() - static_cast<std::size_t>(at));
    out.insert(out.end(), b.begin() + at,
               b.begin() + at + static_cast<std::ptrdiff_t>(n));
    rel += n;
    len -= n;
  }
  return out;
}

void StreamBuffer::release_before(std::uint64_t offset) {
  if (offset <= base_) return;
  const std::size_t held = rest_.size() + 1;
  std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>((offset - base_) / kBlockBytes, held));
  if (n == held && block(held - 1).size() < kBlockBytes) --n;
  if (n == 0) return;
  base_ += n * kBlockBytes;
  if (n == held) {  // everything held was full and is released
    first_ = Bytes();
    rest_.clear();
    return;
  }
  first_ = std::move(rest_[n - 1]);
  rest_.erase(rest_.begin(), rest_.begin() + static_cast<std::ptrdiff_t>(n));
}

}  // namespace longlook::util
