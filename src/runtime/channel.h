#pragma once
// FIFO channels ("tapes").
//
// A channel is the paper's data tape: filters push to the front and pop from
// the end, and may peek at not-yet-popped items.  The channel additionally
// remembers the *cumulative* number of items ever pushed and popped -- n(t)
// and p(t) in the paper's operational semantics -- which the sdep/messaging
// machinery reads to decide message delivery points.
//
// Storage is a power-of-two ring buffer: live items occupy `count_` slots
// starting at `head_`, indices wrap with a mask instead of a modulo, and
// both peek and pop are branch-light O(1) on contiguous memory (the deque
// this replaced cost a segment-map indirection per access).  Invariants:
//   * capacity is 0 or a power of two; mask_ == capacity - 1;
//   * head_ <= mask_ whenever capacity > 0;
//   * growth preserves FIFO order by re-linearizing live items at slot 0.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/filter.h"

namespace sit::runtime {

class Channel final : public ir::InTape, public ir::OutTape {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  void push_item(double v) override {
    if (count_ == buf_.size()) grow(count_ + 1);
    buf_[(head_ + count_) & mask_] = v;
    ++count_;
    ++total_pushed_;
  }

  double pop_item() override {
    if (count_ == 0) throw std::runtime_error("pop from empty channel");
    const double v = buf_[head_];
    head_ = (head_ + 1) & mask_;
    --count_;
    ++total_popped_;
    return v;
  }

  // Bulk discard: one bounds check, then a single index advance -- the
  // symmetric fast path to push_many (decimation loops pop stride items per
  // output without looking at them).
  void pop_many(int n) override {
    if (n <= 0) return;
    const auto un = static_cast<std::size_t>(n);
    if (un > count_) throw std::runtime_error("pop from empty channel");
    head_ = (head_ + un) & mask_;
    count_ -= un;
    total_popped_ += n;
  }

  double peek_item(int offset) override {
    if (offset < 0 || static_cast<std::size_t>(offset) >= count_) {
      throw std::runtime_error("peek(" + std::to_string(offset) +
                               ") beyond channel contents (" +
                               std::to_string(count_) + ")");
    }
    return buf_[(head_ + static_cast<std::size_t>(offset)) & mask_];
  }

  bool window(int n, ir::TapeWindow* w) override {
    if (n < 0 || static_cast<std::size_t>(n) > count_) return false;
    *w = {buf_.data(), head_, mask_};
    return true;
  }

  // Bulk append: one capacity check, then at most two contiguous copies
  // (the write region may wrap once around the ring).
  void push_many(const std::vector<double>& vs) {
    if (vs.empty()) return;
    if (count_ + vs.size() > buf_.size()) grow(count_ + vs.size());
    const std::size_t start = (head_ + count_) & mask_;
    const std::size_t first = std::min(vs.size(), buf_.size() - start);
    std::copy_n(vs.data(), first, buf_.data() + start);
    std::copy_n(vs.data() + first, vs.size() - first, buf_.data());
    count_ += vs.size();
    total_pushed_ += static_cast<std::int64_t>(vs.size());
  }

  // Pre-size the ring so the next `n`-item burst does not reallocate.
  void reserve_items(std::size_t n) {
    if (count_ + n > buf_.size()) grow(count_ + n);
  }

  // Cumulative counters: n(t) = items ever pushed, p(t) = items ever popped.
  [[nodiscard]] std::int64_t total_pushed() const noexcept { return total_pushed_; }
  [[nodiscard]] std::int64_t total_popped() const noexcept { return total_popped_; }

  // --- fused-engine bulk transfer (runtime/fused.h) -------------------------
  // The fused steady-state trace lowers a fully-internal channel to a flat
  // array for the duration of a run_steady call: drain_items moves the live
  // contents out in FIFO order and restore_items moves them back at
  // deactivation.  Neither touches the cumulative n(t)/p(t) counters -- the
  // trace advances them in bulk via advance_counters once per iteration, so
  // the counters stay bit-equal to a per-item execution.

  // Copy all live items to dst (which must hold size() doubles) and empty the
  // channel.  Returns the number of items moved.
  std::size_t drain_items(double* dst) noexcept {
    for (std::size_t i = 0; i < count_; ++i) {
      dst[i] = buf_[(head_ + i) & mask_];
    }
    const std::size_t n = count_;
    count_ = 0;
    head_ = 0;
    return n;
  }

  // Refill an empty channel with n items in FIFO order.
  void restore_items(const double* src, std::size_t n) {
    if (count_ != 0) {
      throw std::logic_error("restore_items on a non-empty channel");
    }
    if (n == 0) return;
    if (n > buf_.size()) grow(n);
    head_ = 0;
    std::copy_n(src, n, buf_.data());
    count_ = n;
  }

  // Bulk-advance the cumulative counters without moving data.
  void advance_counters(std::int64_t pushed, std::int64_t popped) noexcept {
    total_pushed_ += pushed;
    total_popped_ += popped;
  }

  // High-water mark of live items, for buffer-requirement reporting.
  void note_high_water() noexcept { high_water_ = std::max(high_water_, count_); }
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  void grow(std::size_t min_cap) {
    std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    while (cap < min_cap) cap *= 2;
    std::vector<double> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) & mask_];
    }
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<double> buf_;
  std::size_t head_{0};
  std::size_t count_{0};
  std::size_t mask_{0};
  std::int64_t total_pushed_{0};
  std::int64_t total_popped_{0};
  std::size_t high_water_{0};
};

// Tape stubs for boundary actors with no edge at all (pure sources have no
// input, pure sinks no output): any access throws.
class NullIn final : public ir::InTape {
 public:
  double peek_item(int) override {
    throw std::runtime_error("source filter attempted to peek");
  }
  double pop_item() override {
    throw std::runtime_error("source filter attempted to pop");
  }
};

class NullOut final : public ir::OutTape {
 public:
  void push_item(double) override {
    throw std::runtime_error("sink filter attempted to push");
  }
};

inline NullIn null_in;
inline NullOut null_out;

}  // namespace sit::runtime
