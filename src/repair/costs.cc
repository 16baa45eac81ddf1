#include "repair/costs.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

namespace cvrepair {

double CostModel::Dist(const Value& original, const Value& repaired) const {
  if (original == repaired) return 0.0;
  if (repaired.is_fresh() || original.is_fresh()) return fresh_cost;
  if (kind == Kind::kNumericAbs && original.is_numeric() &&
      repaired.is_numeric()) {
    double scale = numeric_scale > 0 ? numeric_scale : 1.0;
    return std::abs(original.numeric() - repaired.numeric()) / scale;
  }
  if (kind == Kind::kEditDistance &&
      original.kind() == ValueKind::kString &&
      repaired.kind() == ValueKind::kString) {
    const std::string& a = original.as_string();
    const std::string& b = repaired.as_string();
    size_t longest = std::max(a.size(), b.size());
    if (longest == 0) return 0.0;
    return static_cast<double>(EditDistance(a, b)) / longest;
  }
  return 1.0;
}

int EditDistance(const std::string& a, const std::string& b) {
  std::vector<int> prev(b.size() + 1);
  std::vector<int> cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

double RepairCost(const Relation& before, const Relation& after,
                  const CostModel& cost) {
  assert(before.num_rows() == after.num_rows());
  assert(before.num_attributes() == after.num_attributes());
  double total = 0.0;
  for (int i = 0; i < before.num_rows(); ++i) {
    for (AttrId a = 0; a < before.num_attributes(); ++a) {
      total += cost.CellDist({i, a}, before.Get(i, a), after.Get(i, a));
    }
  }
  return total;
}

int ChangedCellCount(const Relation& before, const Relation& after) {
  assert(before.num_rows() == after.num_rows());
  int count = 0;
  for (int i = 0; i < before.num_rows(); ++i) {
    for (AttrId a = 0; a < before.num_attributes(); ++a) {
      if (!(before.Get(i, a) == after.Get(i, a))) ++count;
    }
  }
  return count;
}

int64_t NextFreshId(const Relation& r) {
  int64_t next = 1;
  for (int i = 0; i < r.num_rows(); ++i) {
    for (AttrId a = 0; a < r.num_attributes(); ++a) {
      const Value& v = r.Get(i, a);
      if (v.is_fresh()) next = std::max(next, v.fresh_id() + 1);
    }
  }
  return next;
}

}  // namespace cvrepair
