// Independent brute-force oracle for per-event metric replies.
//
// It follows the paper's window definition (§2) and nothing of the
// engine's code: the reply to an event arriving at time T is computed
// over the events of the same group that arrived no later than it,
// with T - ws <= t <= T. An event exactly on either edge is inside.
// Arithmetic is on integer cents, so every expected value is exact.
#ifndef RAILBENCH_ORACLE_H_
#define RAILBENCH_ORACLE_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "generator.h"

namespace railbench {

enum class Agg { kSum, kCount, kAvg, kMax };

struct OracleMetric {
  Agg agg;
  Micros window;      // Sliding window length.
  bool by_merchant;   // Group by (cardId, merchantId) instead of cardId.
  std::string name;   // The reply's display name for this metric.
};

class Oracle {
 public:
  explicit Oracle(std::vector<OracleMetric> metrics);

  const std::vector<OracleMetric>& metrics() const { return metrics_; }

  // Feeds the next payment (in arrival order) and returns the expected
  // value of every metric, in metrics() order, for the payment's group.
  std::vector<double> Apply(const Payment& p);

  // The reply's group key for a metric and payment.
  static std::string GroupKey(const OracleMetric& metric, const Payment& p);

  // Runs the oracle on hand-computed cases: events on both window
  // edges, equal timestamps, expiry of seeded history, and the
  // (card, merchant) grouping. Returns an empty string on success, else
  // a description of the first failed case.
  static std::string SelfCheck();

 private:
  struct GroupState {
    std::deque<std::pair<Micros, int64_t>> events;  // (t, cents).
    int64_t sum = 0;
    std::multiset<int64_t> values;  // Kept only when a max metric reads it.
  };
  // One (window, grouping) pair; metrics sharing one read one view.
  struct View {
    Micros window;
    bool by_merchant;
    bool keep_values;
    std::unordered_map<uint64_t, GroupState> groups;
  };

  std::vector<OracleMetric> metrics_;
  std::vector<View> views_;
  std::vector<size_t> view_of_metric_;
};

}  // namespace railbench

#endif  // RAILBENCH_ORACLE_H_
