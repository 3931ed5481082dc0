#include "core/scenario.h"

#include <stdexcept>

#include "util/strings.h"

namespace coolopt::core {

const char* to_string(Distribution d) {
  switch (d) {
    case Distribution::kEven: return "Even";
    case Distribution::kBottomUp: return "Bottom-up";
    case Distribution::kOptimal: return "Optimal";
  }
  return "?";
}

std::string Scenario::name() const {
  return util::strf("#%d %s%s%s", number, to_string(distribution),
                    ac_control ? " +AC" : "", consolidation ? " +consol" : "");
}

const std::vector<Scenario>& Scenario::all8() {
  static const std::vector<Scenario> scenarios = {
      {1, Distribution::kEven, false, false},
      {2, Distribution::kBottomUp, false, false},
      {3, Distribution::kBottomUp, false, true},
      {4, Distribution::kEven, true, false},
      {5, Distribution::kBottomUp, true, false},
      {6, Distribution::kOptimal, true, false},
      {7, Distribution::kBottomUp, true, true},
      {8, Distribution::kOptimal, true, true},
  };
  return scenarios;
}

Scenario Scenario::by_number(int number) {
  for (const Scenario& s : all8()) {
    if (s.number == number) return s;
  }
  throw std::out_of_range(util::strf("Scenario::by_number: no scenario #%d", number));
}

}  // namespace coolopt::core
