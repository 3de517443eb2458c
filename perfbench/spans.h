#pragma once

// In-memory span recorder for the benchmark's traced replay.
//
// A span is one call into a layer, timed with steady_clock from the
// benchmark's side of the call: name, start, end, the span that caused it
// (parent) and the job it belongs to.  Each thread appends to its own
// buffer; nothing is written out until the replay has finished.
//
// Roll-up rules:
//  - self time = a span's duration minus the durations of its children
//    recorded on the same thread (children on another thread run in
//    parallel with their parent, so they do not shorten it);
//  - busy time = the summed duration of spans whose parent is absent or
//    on another thread (a lane's top-level work);
//  - lane idle = lanes x wall - busy.
// So the self times of every layer plus lane idle add up to lanes x wall.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = none
  std::uint32_t job = 0;
  std::uint32_t thread = 0;
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

struct LayerTotals {
  std::size_t calls = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed self times
};

struct Rollup {
  std::map<std::string, LayerTotals> layers;
  double wall_s = 0.0;
  unsigned lanes = 1;
  double busy_s = 0.0;
  double idle_s = 0.0;
  /// (sum of self times + idle) - lanes x wall; 0 when every span nests.
  double residual_s = 0.0;
};

class SpanRecorder {
 public:
  /// A disabled recorder makes every Scope inert (the untraced replay).
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), epoch_(Clock::now()),
        generation_(next_generation_.fetch_add(1) + 1) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint32_t parent,
          std::uint32_t job)
        : rec_(rec.enabled_ ? &rec : nullptr) {
      if (rec_ == nullptr) return;
      span_.id = rec_->next_id_.fetch_add(1) + 1;
      span_.parent = parent;
      span_.job = job;
      span_.name = name;
      span_.start_ns = rec_->now_ns();
    }
    ~Scope() {
      if (rec_ == nullptr) return;
      span_.end_ns = rec_->now_ns();
      rec_->append(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's id (0 when recording is off), to pass as a parent.
    [[nodiscard]] std::uint32_t id() const { return span_.id; }

   private:
    SpanRecorder* rec_;
    Span span_;
  };

  /// Every recorded span; call only after all recording threads joined.
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    return all;
  }

  [[nodiscard]] static Rollup rollup(const std::vector<Span>& spans,
                                     unsigned lanes, double wall_s) {
    Rollup r;
    r.wall_s = wall_s;
    r.lanes = lanes;
    std::map<std::uint32_t, const Span*> by_id;
    for (const Span& s : spans) by_id[s.id] = &s;
    std::map<std::uint32_t, std::int64_t> child_ns;  // same-thread children
    for (const Span& s : spans) {
      const auto it = by_id.find(s.parent);
      if (it != by_id.end() && it->second->thread == s.thread) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      } else {
        r.busy_s += s.seconds();
      }
    }
    double self_total = 0.0;
    for (const Span& s : spans) {
      LayerTotals& l = r.layers[s.name];
      const double self = s.seconds() - child_ns[s.id] * 1e-9;
      ++l.calls;
      l.total_s += s.seconds();
      l.self_s += self;
      self_total += self;
    }
    r.idle_s = lanes * wall_s - r.busy_s;
    r.residual_s = self_total + r.idle_s - lanes * wall_s;
    return r;
  }

 private:
  using Buffer = std::vector<Span>;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  void append(Span s) {
    // One buffer per (thread, recorder); the generation tag keeps a
    // thread from reusing a buffer of a recorder that no longer exists.
    thread_local std::uint64_t tl_generation = 0;
    thread_local Buffer* tl_buffer = nullptr;
    thread_local std::uint32_t tl_thread = 0;
    if (tl_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      tl_buffer = buffers_.back().get();
      tl_thread = static_cast<std::uint32_t>(buffers_.size());
      tl_generation = generation_;
    }
    s.thread = tl_thread;
    tl_buffer->push_back(s);
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t generation_;
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
  static inline std::atomic<std::uint64_t> next_generation_{0};
};

}  // namespace perfbench
