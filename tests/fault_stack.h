// Test fixtures shared by the runtime, fault, recovery, supervisor and
// portfolio tests: an Enoki module above CFS, and two WFQ variants that
// make a live upgrade fail.

#ifndef TESTS_FAULT_STACK_H_
#define TESTS_FAULT_STACK_H_

#include <memory>
#include <stdexcept>
#include <utility>

#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/simkernel/sched_core.h"

namespace enoki {
namespace {

// Enoki module above CFS, the fallback target.
struct FaultStack {
  std::unique_ptr<SchedCore> core;
  std::unique_ptr<EnokiRuntime> runtime;
  std::unique_ptr<CfsClass> cfs;
  int enoki_policy = 0;
  int cfs_policy = 1;
};

inline FaultStack MakeFaultStack(std::unique_ptr<EnokiSched> module,
                                 MachineSpec spec = MachineSpec::OneSocket8()) {
  FaultStack s;
  s.core = std::make_unique<SchedCore>(spec, SimCosts{});
  s.runtime = std::make_unique<EnokiRuntime>(std::move(module));
  s.cfs = std::make_unique<CfsClass>();
  s.enoki_policy = s.core->RegisterClass(s.runtime.get());
  s.cfs_policy = s.core->RegisterClass(s.cfs.get());
  return s;
}

// A new module that rejects whatever state it is handed: init throws.
class RejectsStateSched : public WfqSched {
 public:
  using WfqSched::WfqSched;
  void ReregisterInit(TransferState state) override { throw std::runtime_error("bad state"); }
};

// An outgoing module without checkpoint support (SaveCheckpoint declines):
// a failed swap cannot be rolled back, so the upgrade takes the legacy
// non-transactional failure path, and with a watchdog the quarantine rung.
class UncheckpointableWfq : public WfqSched {
 public:
  using WfqSched::WfqSched;
  bool SaveCheckpoint(ByteWriter* out) const override { return false; }
};

}  // namespace
}  // namespace enoki

#endif  // TESTS_FAULT_STACK_H_
