#pragma once
// Full-SoC integration (paper §III-C, Fig. 5): N cores, each a host CPU with
// its own Gemmini-generated accelerator, sharing the L2 cache, system bus,
// DRAM and a single page-table walker. Runs lowered WorkStreams and reports
// end-to-end cycles with per-layer-type breakdowns (Fig. 9) plus all the
// substrate statistics (TLB, cache, bus).
//
// Multi-core co-simulation merges the cores' instruction streams in global
// time order: at every scheduling decision, the core whose next event is
// earliest advances by one instruction, so the accelerators contend for the
// shared L2/bus/DRAM with cycle-level interleaving.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/arch/config.h"
#include "src/base/observers.h"
#include "src/cpu/cost_model.h"
#include "src/energy/energy.h"
#include "src/fault/fault.h"
#include "src/mem/memsys.h"
#include "src/metrics/metrics.h"
#include "src/runtime/workstream.h"
#include "src/trace/trace.h"
#include "src/vm/page_table.h"
#include "src/vm/ptw.h"

namespace gemmini {

struct SocConfig {
  std::string name = "soc";
  unsigned cores = 1;
  GemminiConfig accel = GemminiConfig::paper_default();
  CpuCostModel cpu = CpuCostModel::rocket();
  MemSysConfig mem{};
  OsNoiseModel os{};
  /// Seeded fault-injection campaign config; disabled (the default) builds
  /// no injector at all, so the zero-fault timing is bit-identical.
  fault::FaultConfig faults{};
  /// Watchdog: a run whose next event exceeds this cycle count throws a
  /// structured WatchdogError instead of spinning. 0 = no watchdog.
  Cycle max_cycles = 0;

  void validate() const {
    GEMMINI_CONFIG_REQUIRE(cores >= 1 && cores <= 16,
                           "1..16 cores supported");
    GEMMINI_CONFIG_REQUIRE(
        max_cycles == 0 || !os.enabled ||
            max_cycles > os.switch_cost_cycles,
        "max_cycles must exceed the OS switch cost (or be 0 = no watchdog)");
    accel.validate();
    cpu.validate();
    mem.validate();
    os.validate();
    faults.validate();
  }

  /// The Fig. 9 configurations.
  static SocConfig base_1mb_l2();
  static SocConfig big_sp();
  static SocConfig big_l2();
};

/// Result of running one stream on one core.
struct CoreResult {
  Cycle finish = 0;
  Cycle cpu_cycles = 0;
  std::map<std::string, Cycle> cycles_by_tag;
  AccelReport accel;
};

class Soc {
 public:
  /// `tracer` (may be null = tracing off) and the SoC's own fault injector
  /// (built when cfg.faults.enabled) travel as one Observers value through
  /// every timed component: both buses, DRAM, L2, each core's accelerator
  /// (SRAMs, DMA, exec unit, translation); the tracer also records the
  /// SoC-level step/OS accounting. The SoC sets the tracer's (core, layer)
  /// context before advancing a core, so events on shared substrate are
  /// attributed to the issuing core.
  /// `metrics` (null = metrics off, observational only) and `energy`
  /// (null = energy off) stop here: components below the SoC count events
  /// into their own typed stats, which the SoC zeroes at run start. Just
  /// before each sampler snapshot and at the end of a run the SoC publishes
  /// those counts (and, with `energy`, their priced "energy.*" counters)
  /// into the registry. The sampler is driven from the event-merge
  /// frontier, which is non-decreasing — so timelines are deterministic.
  explicit Soc(const SocConfig& cfg, trace::Tracer* tracer = nullptr,
               metrics::Metrics* metrics = nullptr,
               energy::EnergyMeter* energy = nullptr);

  // Components hold references to sibling members (the PTW to the memory
  // system, each accelerator to both) and the observers: a Soc stays put.
  Soc(const Soc&) = delete;
  Soc& operator=(const Soc&) = delete;

  /// Per-core process address space (create one per stream you lower).
  AddressSpace& address_space(unsigned core) { return *spaces_[core]; }
  Accelerator& accelerator(unsigned core) { return *accels_[core]; }
  MemorySystem& memory() { return mem_; }
  PageTableWalker& ptw() { return ptw_; }
  const SocConfig& config() const { return cfg_; }

  /// The fault injector, or nullptr when cfg.faults.enabled is false.
  fault::Injector* fault_injector() { return injector_.get(); }
  const fault::Injector* fault_injector() const { return injector_.get(); }

  /// The attached metrics handle, or nullptr when metrics are off.
  metrics::Metrics* metrics() { return metrics_; }
  const metrics::Metrics* metrics() const { return metrics_; }

  /// The most recent run's dynamic energy, priced from the components'
  /// counts. Requires the SoC to have been built with an energy meter.
  energy::Tally energy_tally() const;

  void set_functional(bool functional);

  /// Runs one stream on core 0 (convenience).
  CoreResult run(const WorkStream& stream);

  /// Runs one stream per core concurrently; streams.size() must be <=
  /// cores. Returns one result per stream.
  std::vector<CoreResult> run_parallel(
      const std::vector<const WorkStream*>& streams);

  /// Resets timing state (buses, banks, accelerator timelines) but keeps
  /// cache contents, TLBs, the PTW's PTE cache and data; call between
  /// repetitions that should run warm.
  void reset_time();
  /// reset_time() plus a cold SoC: drops cache tags, every accelerator's
  /// TLBs and filter registers, and the PTW's PTE cache. Data and address
  /// spaces are kept.
  void reset_all();

 private:
  // Per-core stream execution state machine.
  struct CoreExec {
    const WorkStream* stream = nullptr;
    std::size_t step = 0;
    Cycle t = 0;                 // core-local time
    bool accel_started = false;
    Cycle next_os_switch = 0;
    CoreResult result;
    bool done() const {
      return stream == nullptr || step >= stream->steps.size();
    }
  };

  /// Advances `core` by one unit of work (a CPU step, or one accelerator
  /// instruction). Returns the core's next event time.
  Cycle advance(CoreExec& ce, unsigned core);
  /// Closes the current step, which ran over [start, ce.t]: its layer span,
  /// per-tag cycles and step metrics, post-fixup and OS noise; moves to the
  /// next step and returns the core's next event time.
  Cycle finish_step(CoreExec& ce, unsigned core, Cycle start);
  void maybe_os_switch(CoreExec& ce, unsigned core);
  /// Writes every component's counts under their registry names.
  void publish_metrics();

  SocConfig cfg_;
  metrics::Metrics* metrics_;
  energy::EnergyMeter* energy_;
  /// Built before obs_ so it can be threaded through the components'
  /// constructors; null when faults are disabled.
  std::unique_ptr<fault::Injector> injector_;
  /// The tracer and injector_, handed to mem_ and every accelerator.
  Observers obs_;
  MemorySystem mem_;
  FrameAllocator frames_;
  PageTableWalker ptw_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  std::vector<std::unique_ptr<Accelerator>> accels_;
  bool functional_ = false;
};

}  // namespace gemmini
