// Unit tests for the allocation-recycling primitives in util/pool.h:
// ObjectPool slot reuse and generation-tag (ABA) protection, RingBuffer
// wraparound/growth semantics, BytesPool buffer recycling, and the
// poison-on-release discipline that makes stale-pointer reads detectable.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/pool.h"

namespace longlook::util {
namespace {

struct Tracked {
  static inline int live_count = 0;
  int value = 0;
  Tracked() { ++live_count; }
  ~Tracked() { --live_count; }
};

using TrackedPool = ObjectPool<Tracked>;

TEST(ObjectPool, AcquireReleaseReusesSlot) {
  TrackedPool pool;
  TrackedPool::Ref a;
  Tracked* first = pool.acquire(a);
  first->value = 41;
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.allocated_slots(), 1u);
  pool.release(a);
  EXPECT_EQ(pool.live(), 0u);

  // The freed slot is recycled: same address, no new heap slot.
  TrackedPool::Ref b;
  Tracked* second = pool.acquire(b);
  EXPECT_EQ(second, first);
  EXPECT_EQ(pool.allocated_slots(), 1u);
  EXPECT_EQ(pool.stats().acquires, 2u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  EXPECT_EQ(pool.stats().reuses(), 1u);
  // acquire() default-constructs: no state leaks from the previous tenant.
  EXPECT_EQ(second->value, 0);
  pool.release(b);
}

TEST(ObjectPool, GenerationTagDefeatsAba) {
  TrackedPool pool;
  TrackedPool::Ref a;
  pool.acquire(a);
  pool.release(a);

  // Reuse the slot under a new identity.
  TrackedPool::Ref b;
  Tracked* obj = pool.acquire(b);
  ASSERT_EQ(b.index, a.index);

  // The stale handle must not resolve to the new tenant.
  EXPECT_EQ(pool.get(a), nullptr);
  EXPECT_EQ(pool.get(b), obj);
  pool.release(b);
  EXPECT_EQ(pool.get(b), nullptr);
}

TEST(ObjectPool, InvalidateEndsIdentityWithoutDestroying) {
  TrackedPool pool;
  TrackedPool::Ref a;
  Tracked* obj = pool.acquire(a);
  obj->value = 7;
  pool.invalidate(a);
  // Handle is stale, but the object is still constructed and reachable via
  // the owner's direct index access (the "event is firing" window).
  EXPECT_EQ(pool.get(a), nullptr);
  EXPECT_EQ(pool.at(a.index)->value, 7);
  EXPECT_EQ(Tracked::live_count, 1);
  pool.release(a);  // deliberately-stale release by the owner
  EXPECT_EQ(Tracked::live_count, 0);
}

TEST(ObjectPool, OutOfRangeAndDefaultRefsAreStale) {
  TrackedPool pool;
  EXPECT_EQ(pool.get(TrackedPool::Ref{}), nullptr);
  EXPECT_EQ(pool.get(TrackedPool::Ref{42, 1}), nullptr);
}

TEST(ObjectPool, GrowsAcrossChunksWithStableAddresses) {
  TrackedPool pool;
  const std::size_t n = TrackedPool::kChunkSize * 3 + 7;
  std::vector<std::pair<TrackedPool::Ref, Tracked*>> held;
  for (std::size_t i = 0; i < n; ++i) {
    TrackedPool::Ref ref;
    Tracked* obj = pool.acquire(ref);
    obj->value = static_cast<int>(i);
    held.emplace_back(ref, obj);
  }
  EXPECT_EQ(pool.live(), n);
  EXPECT_EQ(pool.allocated_slots(), n);
  // Growth never relocates: every previously returned pointer still works.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(pool.get(held[i].first), held[i].second);
    EXPECT_EQ(held[i].second->value, static_cast<int>(i));
  }
  for (auto& [ref, obj] : held) pool.release(ref);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(Tracked::live_count, 0);
}

TEST(ObjectPool, DestructorDestroysLiveObjects) {
  {
    TrackedPool pool;
    TrackedPool::Ref a, b;
    pool.acquire(a);
    pool.acquire(b);
    pool.release(a);
    EXPECT_EQ(Tracked::live_count, 1);
  }
  EXPECT_EQ(Tracked::live_count, 0);
}

TEST(ObjectPool, ReleasedSlotIsPoisoned) {
  if constexpr (!kPoolPoisonEnabled) {
    GTEST_SKIP() << "poisoning compiled out in this configuration";
  }
#ifdef LL_POOL_ASAN
  GTEST_SKIP() << "under ASan the region is hard-poisoned; reading it traps "
                  "(covered by ReleasedSlotReadTrapsUnderAsan)";
#else
  ObjectPool<std::uint64_t> pool;
  ObjectPool<std::uint64_t>::Ref ref;
  std::uint64_t* obj = pool.acquire(ref);
  *obj = 0x1122334455667788ULL;
  auto* raw = reinterpret_cast<const unsigned char*>(obj);
  pool.release(ref);
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    EXPECT_EQ(raw[i], kPoolPoisonByte) << "byte " << i << " not poisoned";
  }
#endif
}

#ifdef LL_POOL_ASAN
TEST(ObjectPoolDeathTest, ReleasedSlotReadTrapsUnderAsan) {
  EXPECT_DEATH(
      {
        ObjectPool<std::uint64_t> pool;
        ObjectPool<std::uint64_t>::Ref ref;
        volatile std::uint64_t* obj = pool.acquire(ref);
        pool.release(ref);
        std::uint64_t leaked = *obj;  // use-after-release must trap
        (void)leaked;
      },
      "poison");
}
#endif

TEST(RingBuffer, FifoOrderAcrossWraparound) {
  RingBuffer<int> ring;
  // Fill to initial capacity, drain half, refill past the physical end so
  // the ring wraps, and check FIFO order throughout.
  for (int i = 0; i < 16; ++i) ring.push_back(int{i});
  EXPECT_EQ(ring.capacity(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  for (int i = 16; i < 24; ++i) ring.push_back(int{i});
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.capacity(), 16u);  // wrapped, not grown
  EXPECT_EQ(ring.growths(), 1u);
  for (int i = 8; i < 24; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, GrowthPreservesOrderAndCountsReallocations) {
  RingBuffer<int> ring;
  EXPECT_EQ(ring.growths(), 0u);
  // Offset the head first so growth has to linearise a wrapped ring.
  for (int i = 0; i < 10; ++i) ring.push_back(int{i});
  for (int i = 0; i < 10; ++i) ring.pop_front();
  for (int i = 0; i < 100; ++i) ring.push_back(int{i});
  EXPECT_EQ(ring.size(), 100u);
  EXPECT_EQ(ring.capacity(), 128u);
  EXPECT_EQ(ring.growths(), 4u);  // 16 -> 32 -> 64 -> 128
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring[static_cast<std::size_t>(0)], i);
    ring.pop_front();
  }
}

TEST(RingBuffer, MoveOnlyElements) {
  RingBuffer<std::unique_ptr<std::string>> ring;
  for (int i = 0; i < 40; ++i) {  // forces growth with move-only payload
    ring.emplace_back(std::make_unique<std::string>(std::to_string(i)));
  }
  EXPECT_EQ(*ring.back(), "39");
  for (int i = 0; i < 40; ++i) {
    std::unique_ptr<std::string> s = std::move(ring.front());
    ring.pop_front();
    EXPECT_EQ(*s, std::to_string(i));
  }
}

TEST(RingBuffer, LogicalIndexingFollowsHead) {
  RingBuffer<int> ring;
  for (int i = 0; i < 16; ++i) ring.push_back(int{i});
  for (int i = 0; i < 5; ++i) ring.pop_front();
  for (int i = 16; i < 20; ++i) ring.push_back(int{i});
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) + 5);
  }
  EXPECT_EQ(ring.back(), 19);
}

TEST(RingBuffer, PushFrontWrapsAndGrowsWithHeadOffset) {
  RingBuffer<int> ring;
  // Offset the head, then push at the front across the physical start.
  for (int i = 0; i < 8; ++i) ring.push_back(int{i});
  for (int i = 0; i < 3; ++i) ring.pop_front();  // holds 3..7, head at 3
  for (int i = 2; i >= -5; --i) ring.push_front(int{i});  // wraps below 0
  EXPECT_EQ(ring.size(), 13u);
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) - 5);
  }
  // Grow while the head sits mid-array, from both ends.
  for (int i = 8; i < 12; ++i) ring.push_back(int{i});
  for (int i = -6; i >= -20; --i) ring.push_front(int{i});
  EXPECT_EQ(ring.size(), 32u);
  EXPECT_EQ(ring.capacity(), 32u);
  EXPECT_EQ(ring.growths(), 2u);
  EXPECT_EQ(ring.front(), -20);
  EXPECT_EQ(ring.back(), 11);
  for (int i = -20; i < 12; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, ClearDestroysAllElements) {
  RingBuffer<std::shared_ptr<int>> ring;
  auto witness = std::make_shared<int>(1);
  for (int i = 0; i < 20; ++i) ring.push_back(std::shared_ptr<int>(witness));
  EXPECT_EQ(witness.use_count(), 21);
  ring.clear();
  EXPECT_EQ(witness.use_count(), 1);
  EXPECT_TRUE(ring.empty());
}

TEST(BytesPool, RecyclesHeapBlocks) {
  BytesPool pool;
  Bytes b = pool.acquire(100);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 100u);
  const std::uint8_t* block = b.data();
  b.assign({1, 2, 3});
  pool.release(std::move(b));
  EXPECT_EQ(pool.retained(), 1u);

  // Same heap block comes back — empty, regardless of its old contents.
  Bytes c = pool.acquire(50);
  EXPECT_EQ(c.data(), block);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(pool.retained(), 0u);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  EXPECT_EQ(pool.stats().acquires, 2u);
}

TEST(BytesPool, GrowsRecycledBufferToRequestedCapacity) {
  BytesPool pool;
  Bytes small = pool.acquire(8);
  pool.release(std::move(small));
  Bytes big = pool.acquire(4096);
  EXPECT_GE(big.capacity(), 4096u);
  EXPECT_TRUE(big.empty());
}

TEST(BytesPool, IgnoresUnallocatedBuffers) {
  BytesPool pool;
  pool.release(Bytes{});  // no heap block: nothing worth retaining
  EXPECT_EQ(pool.retained(), 0u);
  EXPECT_EQ(pool.stats().releases, 0u);
}

TEST(BytesPool, RecycleBytesHelperFeedsThreadLocalPool) {
  BytesPool& local = BytesPool::local();
  const std::size_t before = local.retained();
  Bytes b(64, 0xAB);
  recycle_bytes(std::move(b));
  EXPECT_EQ(local.retained(), before + 1);
  // Drain what we just parked so other tests see an unchanged pool.
  Bytes back = local.acquire(1);
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(local.retained(), before);
}

}  // namespace
}  // namespace longlook::util
