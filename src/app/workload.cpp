#include "app/workload.hpp"

#include <algorithm>
#include <stdexcept>

namespace bml {

LoadTrace combined_trace(const std::vector<const LoadTrace*>& traces) {
  if (traces.empty()) return LoadTrace{};
  for (const LoadTrace* t : traces)
    if (!t) throw std::invalid_argument("combined_trace: null trace");
  if (traces.size() == 1) return *traces.front();
  std::size_t n = 0;
  for (const LoadTrace* t : traces) n = std::max(n, t->size());
  std::vector<double> rates(n, 0.0);
  for (const LoadTrace* t : traces)
    for (std::size_t s = 0; s < t->size(); ++s)
      rates[s] += t->at(static_cast<TimePoint>(s));
  return LoadTrace(std::move(rates));
}

}  // namespace bml
