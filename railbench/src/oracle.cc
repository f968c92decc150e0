#include "oracle.h"

#include <cstdio>

namespace railbench {

Oracle::Oracle(std::vector<OracleMetric> metrics)
    : metrics_(std::move(metrics)) {
  for (const OracleMetric& m : metrics_) {
    size_t v = 0;
    while (v < views_.size() && (views_[v].window != m.window ||
                                 views_[v].by_merchant != m.by_merchant)) {
      ++v;
    }
    if (v == views_.size()) {
      views_.push_back(View{m.window, m.by_merchant, false, {}});
    }
    if (m.agg == Agg::kMax) views_[v].keep_values = true;
    view_of_metric_.push_back(v);
  }
}

std::vector<double> Oracle::Apply(const Payment& p) {
  std::vector<const GroupState*> states(views_.size());
  for (size_t v = 0; v < views_.size(); ++v) {
    View& view = views_[v];
    const uint64_t key = view.by_merchant
                             ? (uint64_t{p.card} << 32) | p.merchant
                             : uint64_t{p.card};
    GroupState& g = view.groups[key];
    g.events.emplace_back(p.ts, p.cents);
    g.sum += p.cents;
    if (view.keep_values) g.values.insert(p.cents);
    // T - ws <= t stays inside: only strictly older events leave.
    while (g.events.front().first < p.ts - view.window) {
      g.sum -= g.events.front().second;
      if (view.keep_values) g.values.erase(g.values.find(g.events.front().second));
      g.events.pop_front();
    }
    states[v] = &g;
  }
  std::vector<double> out;
  out.reserve(metrics_.size());
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const GroupState& g = *states[view_of_metric_[i]];
    const double n = static_cast<double>(g.events.size());
    switch (metrics_[i].agg) {
      case Agg::kSum:
        out.push_back(static_cast<double>(g.sum));
        break;
      case Agg::kCount:
        out.push_back(n);
        break;
      case Agg::kAvg:
        out.push_back(static_cast<double>(g.sum) / n);
        break;
      case Agg::kMax:
        out.push_back(static_cast<double>(*g.values.rbegin()));
        break;
    }
  }
  return out;
}

std::string Oracle::GroupKey(const OracleMetric& metric, const Payment& p) {
  std::string key = CardName(p.card);
  if (metric.by_merchant) {
    key.push_back('\x1f');
    key += MerchantName(p.merchant);
  }
  return key;
}

namespace {

struct Case {
  const char* what;
  Payment p;
  std::vector<double> expected;  // sum, count, max, avg, merchant sum.
};

}  // namespace

std::string Oracle::SelfCheck() {
  // Window 10 s over card 1; a second view groups by (card, merchant).
  constexpr Micros kS = 1000000;
  Oracle oracle({{Agg::kSum, 10 * kS, false, "sum"},
                 {Agg::kCount, 10 * kS, false, "count"},
                 {Agg::kMax, 10 * kS, false, "max"},
                 {Agg::kAvg, 10 * kS, false, "avg"},
                 {Agg::kSum, 10 * kS, true, "sum_m"}});
  const std::vector<Case> cases = {
      // Seeded history, then live events expiring it.
      {"first history event", {0, 1, 1, 7, 500}, {500, 1, 500, 500, 500}},
      {"second history event", {2 * kS, 2, 1, 8, 300}, {800, 2, 500, 400, 300}},
      {"equal timestamp", {2 * kS, 3, 1, 7, 100}, {900, 3, 500, 300, 600}},
      {"other card leaves card 1 alone", {3 * kS, 4, 2, 7, 9999},
       {9999, 1, 9999, 9999, 9999}},
      {"t=0 on the trailing edge stays", {10 * kS, 5, 1, 7, 200},
       {1100, 4, 500, 275, 800}},
      {"t=0 just past the edge expires", {10 * kS + 1, 6, 1, 8, 50},
       {650, 4, 300, 162.5, 350}},
      {"both t=2s events on the edge stay", {12 * kS, 7, 1, 7, 10},
       {660, 5, 300, 132, 310}},
      {"both t=2s events expire together", {12 * kS + 1, 8, 1, 7, 20},
       {280, 4, 200, 70, 230}},
      {"equal timestamp on the leading edge", {12 * kS + 1, 9, 1, 8, 40},
       {320, 5, 200, 64, 90}},
      {"all history expired", {30 * kS, 10, 1, 7, 1}, {1, 1, 1, 1, 1}},
  };
  for (const Case& c : cases) {
    const std::vector<double> got = oracle.Apply(c.p);
    // Metric order is sum, count, max, avg, merchant sum.
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i] != c.expected[i]) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "oracle self-check '%s': metric %zu = %.17g, expected "
                      "%.17g",
                      c.what, i, got[i], c.expected[i]);
        return buf;
      }
    }
  }
  if (GroupKey(oracle.metrics()[4], {0, 0, 3, 4, 1}) != "card3\x1fmerch4") {
    return "oracle self-check: (cardId, merchantId) group key";
  }
  return "";
}

}  // namespace railbench
