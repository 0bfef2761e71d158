#include "matchers.h"

#include <sys/mman.h>

#include <new>

#include "common/logging.h"
#include "trace.h"

namespace erbench {

namespace {

std::atomic<uint64_t> g_generation{1};

struct SlotCache {
  const void* owner = nullptr;
  uint64_t generation = 0;
  void* slot = nullptr;
};
thread_local SlotCache t_slot_cache;

uint64_t MixPair(uint64_t a, uint64_t b) {
  uint64_t lo = a < b ? a : b;
  uint64_t hi = a < b ? b : a;
  uint64_t h = lo * 0x9E3779B97F4A7C15ull ^ (hi + 0x632BE59BD9B4E019ull);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return h;
}

}  // namespace

CountingMatcher::CountingMatcher(const erlb::er::Matcher* inner)
    : inner_(inner), generation_(g_generation.fetch_add(1)) {
  void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ERLB_CHECK(mem != MAP_FAILED) << "mmap of matcher counters failed";
  shared_ = new (mem) Shared();
  Reset();
}

CountingMatcher::~CountingMatcher() {
  shared_->~Shared();
  ::munmap(shared_, sizeof(Shared));
}

CountingMatcher::Slot* CountingMatcher::SlotForThread() const {
  SlotCache& cache = t_slot_cache;
  if (cache.owner != this || cache.generation != generation_) {
    // Slots are claimed through the shared counter, so threads of forked
    // workers never reuse a parent thread's slot by accident; if more
    // than kSlots threads ever match, slots are shared (still exact: the
    // counters are atomic).
    const uint64_t index =
        shared_->next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
    cache = SlotCache{this, generation_, &shared_->slots[index]};
  }
  return static_cast<Slot*>(cache.slot);
}

bool CountingMatcher::Match(const erlb::er::Entity& a,
                            const erlb::er::Entity& b) const {
  Slot* slot = SlotForThread();
  const int64_t start = NowNs();
  const bool match = inner_->Match(a, b);
  const int64_t end = NowNs();
  slot->calls.fetch_add(1, std::memory_order_relaxed);
  if (match) slot->matches.fetch_add(1, std::memory_order_relaxed);
  slot->busy_ns.fetch_add(static_cast<uint64_t>(end - start),
                          std::memory_order_relaxed);
  return match;
}

MatcherTotals CountingMatcher::Read() const {
  MatcherTotals totals;
  for (const Slot& slot : shared_->slots) {
    totals.calls += slot.calls.load(std::memory_order_relaxed);
    totals.matches += slot.matches.load(std::memory_order_relaxed);
    totals.busy_ns += slot.busy_ns.load(std::memory_order_relaxed);
  }
  return totals;
}

void CountingMatcher::Reset() {
  for (Slot& slot : shared_->slots) {
    slot.calls.store(0, std::memory_order_relaxed);
    slot.matches.store(0, std::memory_order_relaxed);
    slot.busy_ns.store(0, std::memory_order_relaxed);
  }
}

bool DroppingMatcher::Match(const erlb::er::Entity& a,
                            const erlb::er::Entity& b) const {
  if (!inner_->Match(a, b)) return false;
  return MixPair(a.id, b.id) % drop_modulus_ != 0;
}

}  // namespace erbench
