#pragma once

// Small helpers shared by the benchmark's workloads: seeded draws,
// order-independent result digests, clocks and summary statistics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/explorer.h"

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness, so the same
/// --seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-independent digest of a set of result rows: the wrapping sum of
/// each row's mixed hash, plus the row count.
struct Digest {
  std::uint64_t sum = 0;
  std::uint64_t rows = 0;

  void add(std::string_view row) {
    Rng mix(fnv1a(row));
    sum += mix.next();
    ++rows;
  }
  friend bool operator==(const Digest&, const Digest&) = default;
  [[nodiscard]] std::string str() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%016llx/%llu",
                  static_cast<unsigned long long>(sum),
                  static_cast<unsigned long long>(rows));
    return buf;
  }
};

/// One result row: (test, compilation, variability bits, speedup bits,
/// status).  Hex floats carry every bit.
inline std::string outcome_row(const std::string& test,
                               const flit::core::CompilationOutcome& o) {
  char nums[96];
  std::snprintf(nums, sizeof nums, "%La\t%a", o.variability, o.speedup);
  return test + '\t' + o.comp.str() + '\t' + nums + '\t' +
         flit::core::to_string(o.status);
}

inline void add_study(Digest& d, const flit::core::StudyResult& s) {
  for (const auto& o : s.outcomes) d.add(outcome_row(s.test_name, o));
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process so far.
inline double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// The highest of p50, p75, p90 and p99 with at least ten samples above it
/// (nearest rank): p75 from 40 samples, p90 from 100, p99 from 1000.  A
/// coarse set keeps runs whose sample counts differ by up to half on the
/// same percentile.  Below 20 samples no such percentile exists and the
/// maximum is reported as p100.
struct Tail {
  double value = 0.0;
  int percentile = 100;
  std::size_t samples = 0;
};

inline Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.value = v.back();
  for (const int p : {99, 90, 75, 50}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n - rank >= 10) {
      t.percentile = p;
      t.value = v[rank - 1];
      break;
    }
  }
  return t;
}

}  // namespace perfbench
