#include "exec/operators.h"

#include <algorithm>

namespace aimai {

int RowSet::SlotOf(int table_id) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table_id) return static_cast<int>(i);
  }
  return -1;
}

void SortAggResult(AggResult* agg) {
  std::vector<size_t> order(agg->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [agg](size_t a, size_t b) {
    return std::lexicographical_compare(
        agg->group_keys[a].begin(), agg->group_keys[a].end(),
        agg->group_keys[b].begin(), agg->group_keys[b].end(), SortKeyLess);
  });
  AggResult out;
  out.group_keys.reserve(agg->size());
  out.agg_values.reserve(agg->size());
  for (size_t i : order) {
    out.group_keys.push_back(std::move(agg->group_keys[i]));
    out.agg_values.push_back(std::move(agg->agg_values[i]));
  }
  *agg = std::move(out);
}

}  // namespace aimai
