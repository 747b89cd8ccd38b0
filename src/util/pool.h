// Allocation-recycling primitives for the simulator hot path.
//
// The discrete-event core dispatches millions of events and forwards
// millions of packets per sweep; the PR 5 profiler showed the old
// implementation spending most of its wall time in the allocator
// (shared_ptr event nodes, hash-map cancel index, per-packet payload
// vectors, deque queue nodes). The three primitives here remove that churn
// while keeping behaviour byte-identical — pooling only changes *where*
// memory comes from, never what the simulation computes:
//
//   ObjectPool<T>   typed freelist pool over chunked, address-stable
//                   storage. acquire() returns a generation-tagged Ref so a
//                   stale handle (release + reuse, the ABA hazard) is
//                   detectable in O(1): get() on an outdated generation
//                   returns nullptr. Released slots are poisoned.
//   RingBuffer<T>   contiguous power-of-two circular FIFO, the replacement
//                   for node-based std::deque link/egress queues.
//   BytesPool       recycles `Bytes` heap buffers (packet payloads) so
//                   steady-state packet forwarding allocates nothing.
//
// Thread model: none of these are thread-safe; each Simulator/Testbed owns
// its pools, and the parallel sweep engine gives every worker its own
// Testbed. BytesPool::local() is thread_local for the same reason.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define LL_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LL_POOL_ASAN 1
#endif
#endif
#ifdef LL_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace longlook::util {

// Byte written over released pool slots (debug/sanitizer builds): reading a
// recycled object through a stale pointer yields this pattern, and under
// ASan the region is additionally hard-poisoned so the read traps.
constexpr unsigned char kPoolPoisonByte = 0xDD;

#if defined(LL_POOL_ASAN) || !defined(NDEBUG) || defined(LL_FORCE_DCHECKS)
constexpr bool kPoolPoisonEnabled = true;
#else
constexpr bool kPoolPoisonEnabled = false;
#endif

namespace pool_detail {

inline void poison(void* p, std::size_t n) {
  if constexpr (kPoolPoisonEnabled) std::memset(p, kPoolPoisonByte, n);
#ifdef LL_POOL_ASAN
  __asan_poison_memory_region(p, n);
#endif
}

inline void unpoison(void* p, std::size_t n) {
#ifdef LL_POOL_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace pool_detail

// Counters shared by the pool types. `heap_allocs` is the number of times
// the pool had to go to the real allocator; everything else was recycled.
// These are deterministic per run for the per-Simulator pools (they depend
// only on the simulated workload, not on wall time or thread placement).
struct PoolStats {
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  std::uint64_t heap_allocs = 0;

  std::uint64_t reuses() const { return acquires - heap_allocs; }
};

// Typed object pool with freelist recycling and generation-tagged handles.
//
// Storage is chunked (kChunkSize objects per chunk) and never relocates, so
// raw T* stay valid across growth — callbacks executing inside a pooled
// object may themselves acquire from the pool. Slots carry a 32-bit
// generation that the owner bumps (via invalidate()/release()) whenever the
// slot's identity ends; get() with an old generation returns nullptr, which
// is what makes stale EventId cancels a true no-op.
template <typename T>
class ObjectPool {
 public:
  static constexpr std::uint32_t kNilIndex = 0xffffffffu;
  static constexpr std::size_t kChunkSize = 256;

  // Handle to a pooled object: slot index + the generation observed at
  // acquire time. POD, trivially packable into a 64-bit id.
  struct Ref {
    std::uint32_t index = kNilIndex;
    std::uint32_t generation = 0;
  };

  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;
  ~ObjectPool() {
    // Destroy live objects; freed slots hold no constructed T.
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      for (std::size_t i = 0; i < chunks_[c]->used; ++i) {
        Slot& s = chunks_[c]->slots[i];
        if (s.live) {
          pool_detail::unpoison(s.storage, sizeof(T));
          object(s)->~T();
        } else {
          pool_detail::unpoison(s.storage, sizeof(T));
        }
      }
    }
  }

  // Default-constructs a T in a recycled (or new) slot. The returned
  // pointer is stable for the pool's lifetime.
  T* acquire(Ref& ref) {
    ++stats_.acquires;
    std::uint32_t index = kNilIndex;
    if (free_head_ != kNilIndex) {
      index = free_head_;
      Slot& s = slot(index);
      free_head_ = s.next_free;
    } else {
      index = allocate_slot();
    }
    Slot& s = slot(index);
    LL_DCHECK(!s.live);
    pool_detail::unpoison(s.storage, sizeof(T));
    T* obj = new (s.storage) T();
    s.live = true;
    ++live_;
    ref.index = index;
    ref.generation = s.generation;
    return obj;
  }

  // The object for `ref`, or nullptr if the handle is stale (the slot was
  // invalidated/released since, possibly reused by a new acquire).
  T* get(Ref ref) {
    if (ref.index >= size_) return nullptr;
    Slot& s = slot(ref.index);
    if (!s.live || s.generation != ref.generation) return nullptr;
    return object(s);
  }

  // Ends the handle's identity without freeing the slot: subsequent get()
  // with this ref returns nullptr, but the object stays constructed until
  // release(). Used for "firing" events whose storage is still executing.
  void invalidate(Ref ref) {
    Slot& s = slot(ref.index);
    LL_DCHECK(s.live && s.generation == ref.generation);
    ++s.generation;
  }

  // Destroys the object and recycles the slot (LIFO freelist). Safe only
  // for the current owner; the generation bump makes every outstanding
  // handle stale.
  void release(Ref ref) {
    Slot& s = slot(ref.index);
    LL_DCHECK(s.live);
    if (s.generation == ref.generation) ++s.generation;
    object(s)->~T();
    s.live = false;
    ++stats_.releases;
    LL_DCHECK(live_ > 0);
    --live_;
    pool_detail::poison(s.storage, sizeof(T));
    s.next_free = free_head_;
    free_head_ = ref.index;
  }

  // Direct slot access for the owner (index must come from a live Ref the
  // owner knows is current; generation is not rechecked).
  T* at(std::uint32_t index) {
    Slot& s = slot(index);
    LL_DCHECK(s.live);
    return object(s);
  }

  std::uint32_t generation_of(std::uint32_t index) {
    return slot(index).generation;
  }

  std::size_t live() const { return live_; }
  // Total slots ever created == high-water mark of concurrently live
  // objects; the pool's contribution to heap traffic.
  std::size_t allocated_slots() const { return size_; }
  const PoolStats& stats() const { return stats_; }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    std::uint32_t generation = 1;  // starts nonzero so a zero id is never live
    std::uint32_t next_free = kNilIndex;
    bool live = false;
  };
  struct Chunk {
    Slot slots[kChunkSize];
    std::size_t used = 0;
  };

  Slot& slot(std::uint32_t index) {
    return chunks_[index / kChunkSize]->slots[index % kChunkSize];
  }
  static T* object(Slot& s) {
    return std::launder(reinterpret_cast<T*>(s.storage));
  }

  std::uint32_t allocate_slot() {
    if (chunks_.empty() || chunks_.back()->used == kChunkSize) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    ++stats_.heap_allocs;
    Chunk& c = *chunks_.back();
    ++c.used;
    return static_cast<std::uint32_t>(size_++);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t free_head_ = kNilIndex;
  std::size_t size_ = 0;  // slots created across all chunks
  std::size_t live_ = 0;
  PoolStats stats_;
};

// Contiguous circular FIFO with power-of-two capacity. Replaces the
// node-based std::deque in link/egress queues: pushes and pops touch one
// cache line and allocate only on growth (doubling, amortised zero).
// push_front lets a ring indexed by key grow below its front.
template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;
  ~RingBuffer() { clear(); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }
  // Number of times the backing array was (re)allocated; the ring's entire
  // heap footprint. Deterministic per run.
  std::uint64_t growths() const { return growths_; }

  void push_back(T&& value) {
    if (count_ == capacity_) grow();
    new (address(physical(count_))) T(std::move(value));
    ++count_;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (count_ == capacity_) grow();
    T* obj = new (address(physical(count_))) T(std::forward<Args>(args)...);
    ++count_;
    return *obj;
  }

  void push_front(T&& value) {
    if (count_ == capacity_) grow();
    head_ = (head_ + capacity_ - 1) & mask();
    new (address(head_)) T(std::move(value));
    ++count_;
  }

  T& front() {
    LL_DCHECK(count_ > 0);
    return *element(head_);
  }
  const T& front() const {
    LL_DCHECK(count_ > 0);
    return *element(head_);
  }
  T& back() {
    LL_DCHECK(count_ > 0);
    return *element(physical(count_ - 1));
  }
  const T& back() const {
    LL_DCHECK(count_ > 0);
    return *element(physical(count_ - 1));
  }
  // Logical indexing from the front (0 == front()).
  T& operator[](std::size_t i) {
    LL_DCHECK(i < count_);
    return *element(physical(i));
  }
  const T& operator[](std::size_t i) const {
    LL_DCHECK(i < count_);
    return *element(physical(i));
  }

  void pop_front() {
    LL_DCHECK(count_ > 0);
    element(head_)->~T();
    head_ = (head_ + 1) & mask();
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
  }

 private:
  std::size_t mask() const { return capacity_ - 1; }
  std::size_t physical(std::size_t logical) const {
    return (head_ + logical) & mask();
  }
  unsigned char* address(std::size_t physical_index) {
    return reinterpret_cast<unsigned char*>(storage_.get()) +
           physical_index * sizeof(T);
  }
  T* element(std::size_t physical_index) {
    return std::launder(reinterpret_cast<T*>(address(physical_index)));
  }
  const T* element(std::size_t physical_index) const {
    return std::launder(reinterpret_cast<const T*>(
        reinterpret_cast<const unsigned char*>(storage_.get()) +
        physical_index * sizeof(T)));
  }

  // Storage is an array of max_align_t units: naturally aligned for any T
  // without over-aligned new[], so unique_ptr's plain delete[] matches the
  // allocation (an aligned-new here would be a new/delete type mismatch).
  static std::size_t units_for(std::size_t bytes) {
    return (bytes + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
  }

  void grow() {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned T needs aligned allocation");
    const std::size_t new_capacity = capacity_ == 0 ? 16 : capacity_ * 2;
    auto new_storage = std::unique_ptr<std::max_align_t[]>(
        new std::max_align_t[units_for(new_capacity * sizeof(T))]);
    auto* base = reinterpret_cast<unsigned char*>(new_storage.get());
    for (std::size_t i = 0; i < count_; ++i) {
      T* old = element(physical(i));
      new (base + i * sizeof(T)) T(std::move(*old));
      old->~T();
    }
    storage_ = std::move(new_storage);
    capacity_ = new_capacity;
    head_ = 0;
    ++growths_;
  }

  std::unique_ptr<std::max_align_t[]> storage_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t growths_ = 0;
};

// Recycler for `Bytes` payload buffers. Packet payloads are allocated once
// at encode time and freed when the receiving transport is done with the
// packet; routing both ends through the pool turns that per-packet
// malloc/free pair into a pop/push on a vector of retained buffers.
//
// Recycling never changes content: acquire() always returns an *empty*
// vector (size 0); only the heap block behind it is reused. Capacity
// differences are unobservable to the wire format and the simulation.
class BytesPool {
 public:
  BytesPool() = default;
  BytesPool(const BytesPool&) = delete;
  BytesPool& operator=(const BytesPool&) = delete;

  // An empty Bytes with capacity >= min_capacity, recycled if possible.
  Bytes acquire(std::size_t min_capacity) {
    ++stats_.acquires;
    if (!buffers_.empty()) {
      Bytes b = std::move(buffers_.back());
      buffers_.pop_back();
      b.clear();
      if (b.capacity() < min_capacity) b.reserve(min_capacity);
      return b;
    }
    ++stats_.heap_allocs;
    Bytes b;
    b.reserve(min_capacity);
    return b;
  }

  // Takes the buffer's heap block for reuse. No-op for unallocated
  // vectors; the retained set is capped so a burst cannot pin memory.
  void release(Bytes&& b) {
    if (b.capacity() == 0 || buffers_.size() >= kMaxRetained) return;
    ++stats_.releases;
    buffers_.push_back(std::move(b));
  }

  std::size_t retained() const { return buffers_.size(); }
  const PoolStats& stats() const { return stats_; }

  // The calling thread's pool. Each sweep worker recycles its own buffers;
  // pool warmth varies with job placement, so BytesPool stats are reported
  // informationally and never folded into deterministic sections.
  static BytesPool& local() {
    thread_local BytesPool pool;
    return pool;
  }

 private:
  static constexpr std::size_t kMaxRetained = 1024;
  std::vector<Bytes> buffers_;
  PoolStats stats_;
};

// Convenience for the packet teardown paths: hand a dying payload's heap
// block back to the calling thread's pool.
inline void recycle_bytes(Bytes&& b) {
  BytesPool::local().release(std::move(b));
}

}  // namespace longlook::util
