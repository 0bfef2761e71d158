// Benchmark-owned er::Matcher wrappers.
//
// CountingMatcher forwards to the real matcher and counts calls, matches
// and time spent per calling thread. Its counters live in a MAP_SHARED
// anonymous mapping, so calls made in forked worker processes
// (ExecutionMode::kMultiProcess) are counted as well.
//
// DroppingMatcher is deliberately wrong: it rejects a fixed share of the
// pairs the real matcher accepts. The self-check uses it to prove that
// the benchmark's output checks catch a wrong match set.
#ifndef ERLB_ERBENCH_MATCHERS_H_
#define ERLB_ERBENCH_MATCHERS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "er/matcher.h"

namespace erbench {

struct MatcherTotals {
  uint64_t calls = 0;
  uint64_t matches = 0;
  uint64_t busy_ns = 0;
};

class CountingMatcher final : public erlb::er::Matcher {
 public:
  /// `inner` is not owned and must outlive this matcher.
  explicit CountingMatcher(const erlb::er::Matcher* inner);
  ~CountingMatcher() override;

  CountingMatcher(const CountingMatcher&) = delete;
  CountingMatcher& operator=(const CountingMatcher&) = delete;

  bool Match(const erlb::er::Entity& a,
             const erlb::er::Entity& b) const override;
  double Similarity(const erlb::er::Entity& a,
                    const erlb::er::Entity& b) const override {
    return inner_->Similarity(a, b);
  }
  std::string Describe() const override {
    return "counting(" + inner_->Describe() + ")";
  }

  /// Sums every thread's counters. Call only while no job is running.
  MatcherTotals Read() const;
  /// Zeroes every counter. Call only while no job is running.
  void Reset();

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> calls;
    std::atomic<uint64_t> matches;
    std::atomic<uint64_t> busy_ns;
  };
  static constexpr uint64_t kSlots = 128;
  struct Shared {
    std::atomic<uint64_t> next_slot;
    Slot slots[kSlots];
  };

  Slot* SlotForThread() const;

  const erlb::er::Matcher* inner_;
  /// Distinguishes this instance from an earlier one at the same address
  /// in the per-thread slot cache.
  const uint64_t generation_;
  Shared* shared_;
};

class DroppingMatcher final : public erlb::er::Matcher {
 public:
  /// Rejects an accepted pair when a hash of its ids is 0 mod
  /// `drop_modulus` — about one match in `drop_modulus`, the same pairs
  /// in every process and every run. Symmetric, as er::Matcher requires.
  DroppingMatcher(const erlb::er::Matcher* inner, uint64_t drop_modulus)
      : inner_(inner), drop_modulus_(drop_modulus) {}

  bool Match(const erlb::er::Entity& a,
             const erlb::er::Entity& b) const override;
  double Similarity(const erlb::er::Entity& a,
                    const erlb::er::Entity& b) const override {
    return inner_->Similarity(a, b);
  }
  std::string Describe() const override {
    return "dropping(" + inner_->Describe() + ")";
  }

 private:
  const erlb::er::Matcher* inner_;
  const uint64_t drop_modulus_;
};

}  // namespace erbench

#endif  // ERLB_ERBENCH_MATCHERS_H_
