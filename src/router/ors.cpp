#include "router/ors.hpp"

#include <bit>

namespace rasoc::router {

int vcArbitrate(std::uint32_t candidates, int rrStart) {
  if (candidates == 0) return -1;
  const std::uint32_t ahead = candidates & (~std::uint32_t{0} << rrStart);
  return std::countr_zero(ahead != 0 ? ahead : candidates);
}

}  // namespace rasoc::router
