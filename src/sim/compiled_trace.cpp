#include "sim/compiled_trace.hpp"

#include <stdexcept>

namespace bml {

void CompiledTrace::throw_negative_time() {
  throw std::invalid_argument("CompiledTrace: negative time");
}

}  // namespace bml
