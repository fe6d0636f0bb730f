// The multitenant workload with every shard's CFS class wrapped.
//
// MultitenantSim constructs and registers its CFS classes itself, so they
// cannot be swapped for wrapped ones from outside. Instead this file compiles
// the unmodified header a second time with CfsClass renamed to the wrapped
// class, and the simulation renamed so the two compilations never meet.
// Everything the header includes is included first, so the renaming touches
// only the header's own body.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/timed.h"
#include "perfbench/workloads.h"
#include "src/base/arena.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/sched/cfs.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"
#include "src/simkernel/sharded_event_loop.h"

namespace perfbench {
namespace {
// The tracer the simulation under construction registers its classes with.
Tracer* g_tracer = nullptr;
}  // namespace

class TracedCfs : public TimedClass<enoki::CfsClass> {
 public:
  TracedCfs() : TimedClass<enoki::CfsClass>(g_tracer->NewTable(Tracer::kCfs)) {}
};

}  // namespace perfbench

#define CfsClass ::perfbench::TracedCfs
#define MultitenantSim TracedMultitenantSim
#define RunMultitenant TracedRunMultitenant
#include "src/workloads/multitenant.h"
#undef CfsClass
#undef MultitenantSim
#undef RunMultitenant

#include "perfbench/mt_run.h"

namespace perfbench {

void RunTracedMultitenantRep(const enoki::MultitenantConfig& cfg, Tracer* tracer, RepResult* r) {
  g_tracer = tracer;
  RunMultitenantRep<enoki::TracedMultitenantSim>(cfg, /*traced=*/true, r);
  g_tracer = nullptr;
}

}  // namespace perfbench
