#pragma once
// Host-time split by simulator component, from a gprof flat profile of the
// -pg build. Until the simulator carries its own host-time accumulators this
// is the only per-component view of where host time goes.

#include <istream>
#include <map>
#include <string>
#include <vector>

namespace bench {

struct HostProfile {
  /// Share of sampled self time per component (sums to 1 when samples > 0).
  std::map<std::string, double> share;
  double samples = 0;
};

/// The components host time is split into, "other" last.
const std::vector<std::string>& host_components();

/// Parses the text of `gprof -b -p` and maps each function's self time to a
/// component by its qualified name.
HostProfile parse_gprof_flat(std::istream& in);

}  // namespace bench
