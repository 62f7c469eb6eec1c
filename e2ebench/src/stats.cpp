#include "stats.hpp"

#include <algorithm>

namespace e2ebench {

namespace {

constexpr int kTailCandidates[] = {999, 990, 950, 900, 750, 500};
constexpr std::size_t kMinBeyond = 10;

std::size_t rankOf(std::size_t n, int per_mille) {
  const std::size_t pm = static_cast<std::size_t>(per_mille);
  const std::size_t rank = (n * pm + 999) / 1000;  // ceil(n * p / 100)
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tailPercentile(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  for (const int pm : kTailCandidates) {
    const std::size_t beyond = samples.size() - rankOf(samples.size(), pm);
    if (beyond >= kMinBeyond) {
      tail.per_mille = pm;
      tail.beyond = beyond;
      tail.qualified = true;
      break;
    }
  }
  if (!tail.qualified) {
    tail.beyond = samples.size() - rankOf(samples.size(), tail.per_mille);
  }
  tail.value = samples[rankOf(samples.size(), tail.per_mille) - 1];
  return tail;
}

const char* percentileLabel(int per_mille) {
  switch (per_mille) {
    case 999: return "p99.9";
    case 990: return "p99";
    case 950: return "p95";
    case 900: return "p90";
    case 750: return "p75";
    default: return "p50";
  }
}

}  // namespace e2ebench
