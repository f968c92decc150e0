// Seeded payment generator: Zipf-skewed cards and merchants, amounts in
// whole cents. Everything the engine sees (timestamps, ids, field
// values) comes from here, so one seed replays one input exactly.
//
// Amounts are integer cents stored in a DOUBLE column: every partial sum
// stays an integer far below 2^53, so sums, averages and maxima are
// exact in double arithmetic and the oracle can demand equality.
#ifndef RAILBENCH_GENERATOR_H_
#define RAILBENCH_GENERATOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace railbench {

using Micros = int64_t;

struct Payment {
  Micros ts = 0;
  uint64_t id = 0;
  uint32_t card = 0;
  uint32_t merchant = 0;
  int64_t cents = 0;
};

inline std::string CardName(uint32_t card) {
  return "card" + std::to_string(card);
}
inline std::string MerchantName(uint32_t merchant) {
  return "merch" + std::to_string(merchant);
}

// splitmix64: small, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Zipf(theta) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(uint32_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t Sample(Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(
        std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                         cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// 50,000 cards and 2,000 merchants, both Zipf(0.99): a few hot cards
// and merchants, a long tail of state-store keys.
class PaymentGenerator {
 public:
  explicit PaymentGenerator(uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ull + 1),
        cards_(50000, 0.99),
        merchants_(2000, 0.99) {}

  // The next payment at event time `ts`; ids count up from 1.
  Payment Next(Micros ts) {
    Payment p;
    p.ts = ts;
    p.id = next_id_++;
    p.card = cards_.Sample(&rng_);
    p.merchant = merchants_.Sample(&rng_);
    // Log-normal-ish: most payments small, a heavy tail; >= 1 cent.
    const double u1 = std::max(rng_.NextDouble(), 1e-12);
    const double u2 = rng_.NextDouble();
    const double gauss =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    p.cents = std::max<int64_t>(
        1, static_cast<int64_t>(std::exp(7.5 + 1.2 * gauss)));
    return p;
  }

  // Event-time step of the closed-loop workloads: 0, 100 or 200 us, so
  // about a fifth of consecutive payments share a timestamp.
  Micros NextStep() {
    const uint64_t r = rng_.Next() % 5;
    return r == 0 ? 0 : (r == 4 ? 200 : 100);
  }

 private:
  Rng rng_;
  Zipf cards_;
  Zipf merchants_;
  uint64_t next_id_ = 1;
};

}  // namespace railbench

#endif  // RAILBENCH_GENERATOR_H_
