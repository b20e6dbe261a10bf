#include "sim/compiled_trace.hpp"

#include <stdexcept>

namespace bml {

void CompiledTrace::throw_negative_time() {
  throw std::invalid_argument("CompiledTrace: negative time");
}

ReqRate CompiledTrace::value_at(TimePoint t) const {
  if (t < 0) throw_negative_time();
  if (t >= size()) return 0.0;
  return samples_[static_cast<std::size_t>(t)];
}

TimePoint CompiledTrace::next_change(TimePoint t) const {
  if (t < 0) throw_negative_time();
  if (t >= size()) return kNeverChanges;  // 0 forever
  return run_end(ends_, run_index(ends_, static_cast<std::size_t>(t)));
}

}  // namespace bml
