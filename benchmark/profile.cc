#include "benchmark/profile.h"

#include <cstdlib>
#include <sstream>

namespace bench {

namespace {

struct Rule {
  const char* component;
  std::vector<const char*> patterns;
};

// First match wins. Observers and the compile/reference layers come first so
// that, say, a metrics:: helper called from the DRAM model counts as metrics.
const std::vector<Rule>& rules() {
  static const std::vector<Rule> r = {
      {"trace", {"trace::"}},
      {"metrics", {"metrics::"}},
      {"energy", {"energy::"}},
      {"model.lowering", {"lowering::", "emit_"}},
      {"cpu.kernels", {"ref::"}},
      {"accel.exec", {"ExecUnit::", "Accelerator::"}},
      {"accel.sram", {"Scratchpad::", "Accumulator::"}},
      {"accel.dma", {"DmaEngine::"}},
      {"vm",
       {"Tlb::", "TranslationSystem::", "PageTableWalker::", "AddressSpace::",
        "FrameAllocator::"}},
      {"mem.physmem", {"PhysMem::"}},
      {"mem.l2", {"Cache::", "MemorySystem::"}},
      {"mem.bus", {"Bus::"}},
      {"mem.dram", {"Dram::"}},
      {"soc", {"Soc::"}},
  };
  return r;
}

std::string component_of(const std::string& symbol) {
  // Match on the qualified name only: parameter types name other layers.
  const std::string name = symbol.substr(0, symbol.find('('));
  for (const Rule& r : rules()) {
    for (const char* p : r.patterns) {
      if (name.find(p) != std::string::npos) return r.component;
    }
  }
  return "other";
}

bool parse_number(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return !token.empty() && end == token.c_str() + token.size();
}

}  // namespace

const std::vector<std::string>& host_components() {
  static const std::vector<std::string> c = [] {
    std::vector<std::string> v;
    for (const char* name :
         {"accel.exec", "accel.sram", "accel.dma", "vm", "mem.physmem",
          "mem.l2", "mem.bus", "mem.dram", "soc", "model.lowering",
          "cpu.kernels", "metrics", "energy", "trace", "other"}) {
      v.emplace_back(name);
    }
    return v;
  }();
  return c;
}

HostProfile parse_gprof_flat(std::istream& in) {
  HostProfile p;
  for (const std::string& c : host_components()) p.share[c] = 0;
  double period = 0.01;
  double total = 0;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::string marker = "Each sample counts as ";
    if (const auto at = line.find(marker); at != std::string::npos) {
      parse_number(line.substr(at + marker.size(),
                               line.find(' ', at + marker.size()) - at -
                                   marker.size()),
                   &period);
      continue;
    }
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (!in_table) {
      in_table = first == "time";  // second header row: "time seconds ..."
      continue;
    }
    if (first.empty()) break;  // the table ends at the first blank line
    // "%time cumulative self [calls self/call total/call] name": up to six
    // numbers, then the symbol, which may itself contain spaces.
    std::size_t pos = 0;
    double numbers[6] = {};
    int count = 0;
    while (count < 6) {
      const std::size_t start = line.find_first_not_of(' ', pos);
      if (start == std::string::npos) break;
      const std::size_t end = line.find(' ', start);
      const std::string token = line.substr(start, end - start);
      if (!parse_number(token, &numbers[count])) break;
      ++count;
      pos = end == std::string::npos ? line.size() : end;
    }
    if (count < 3) continue;
    const std::size_t name_at = line.find_first_not_of(' ', pos);
    const std::string symbol =
        name_at == std::string::npos ? "" : line.substr(name_at);
    p.share[component_of(symbol)] += numbers[2];
    total += numbers[2];
  }
  if (total > 0) {
    for (auto& [name, v] : p.share) v /= total;
  }
  p.samples = period > 0 ? total / period : 0;
  return p;
}

}  // namespace bench
