#pragma once
// The per-SoC observers a timed component may report to, as one value.
//
// A Soc owns at most one trace::Tracer (cycle-level event recording) and at
// most one fault::Injector (seeded fault injection). Every timed component
// below it takes one `Observers` in its constructor instead of a trailing
// pointer per observer; a null member means that observer is off and costs
// the component one predictable branch per site. Tracing is purely
// observational; the injector changes timing only when faults are enabled,
// so the default (both null) is bit-identical to the golden cycle counts.

namespace gemmini {

namespace trace {
class Tracer;
}
namespace fault {
class Injector;
}

struct Observers {
  trace::Tracer* trace = nullptr;
  fault::Injector* faults = nullptr;
};

}  // namespace gemmini
