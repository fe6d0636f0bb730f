// Two-level scheduling with the Enoki core arbiter
// (paper sections 3.3, 4.2.4, 5.6).
//
// An application's user-level runtime requests CPU cores through the
// user-to-kernel hint queue; the in-kernel arbiter grants whole cores to
// scheduler activations and asks for them back through the kernel-to-user
// queue when demand drops. This example drives the arbiter directly
// (the full memcached workload lives in bench_fig3_arachne) and prints the
// grant/reclaim conversation. Exits 1 unless the grants follow the script:
// 3 cores granted after the 1 ms request, 2 of them reclaimed after the
// 10 ms request for 1.

#include <cstdio>
#include <memory>

#include "src/enoki/runtime.h"
#include "src/sched/arbiter.h"
#include "src/sched/cfs.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"

using namespace enoki;

int main() {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  // Arbitrated cores: 1..7 (core 0 reserved for background work).
  EnokiRuntime runtime(std::make_unique<ArbiterSched>(0, 1, 7));
  CfsClass cfs;
  const int arbiter_policy = core.RegisterClass(&runtime);
  const int cfs_policy = core.RegisterClass(&cfs);
  const int hint_q = runtime.CreateHintQueue(256);
  const int rev_q = runtime.CreateRevQueue(256);
  constexpr uint64_t kAppId = 1;

  // Four scheduler activations. Each spins running "user threads" while it
  // owns a core, and parks when the runtime asks for the core back.
  auto reclaim_flag = std::make_shared<std::vector<bool>>(4, false);
  auto parks = std::make_shared<std::vector<std::unique_ptr<WaitQueue>>>();
  std::vector<Task*> activations;
  for (int i = 0; i < 4; ++i) {
    parks->push_back(std::make_unique<WaitQueue>("park"));
  }
  for (int i = 0; i < 4; ++i) {
    const int idx = i;
    auto first = std::make_shared<bool>(true);
    activations.push_back(core.CreateTask(
        "activation-" + std::to_string(i),
        MakeFnBody([reclaim_flag, parks, idx, first](SimContext&) -> Action {
          if (*first || (*reclaim_flag)[idx]) {
            *first = false;
            (*reclaim_flag)[idx] = false;
            return Action::Block((*parks)[idx].get());
          }
          return Action::Compute(Microseconds(100));  // run user-level threads
        }),
        arbiter_policy));
    HintBlob bind;
    bind.w[0] = ArbiterSched::kBindActivation;
    bind.w[1] = kAppId;
    bind.w[2] = activations.back()->pid();
    runtime.SendHint(hint_q, bind);
  }

  // The runtime controller: request 3 cores at t=1ms, drop to 1 at t=10ms.
  auto request = [&](uint64_t n) {
    HintBlob req;
    req.w[0] = ArbiterSched::kReqCores;
    req.w[1] = kAppId;
    req.w[2] = n;
    runtime.SendHint(hint_q, req);
    std::printf("[%6.2f ms] runtime: requesting %llu cores\n", ToMilliseconds(core.now()),
                static_cast<unsigned long long>(n));
  };
  // Poll the reverse queue and apply grants/reclaims, like the Arachne
  // runtime does.
  int grants = 0;
  int reclaims = 0;
  auto poll = std::make_shared<std::function<void()>>();
  *poll = [&core, &runtime, rev_q, reclaim_flag, parks, &activations, &grants, &reclaims, poll] {
    while (auto hint = runtime.PollRevHint(rev_q)) {
      const uint64_t pid = hint->w[3];
      for (size_t i = 0; i < activations.size(); ++i) {
        if (activations[i]->pid() != pid) {
          continue;
        }
        if (hint->w[0] == ArbiterSched::kGrantCore) {
          ++grants;
          std::printf("[%6.2f ms] kernel: granted core %llu to activation %zu\n",
                      ToMilliseconds(core.now()), static_cast<unsigned long long>(hint->w[2]),
                      i);
          core.Signal((*parks)[i].get());
        } else {
          ++reclaims;
          std::printf("[%6.2f ms] kernel: reclaiming core %llu from activation %zu\n",
                      ToMilliseconds(core.now()), static_cast<unsigned long long>(hint->w[2]),
                      i);
          (*reclaim_flag)[i] = true;
        }
        break;
      }
    }
    core.loop().ScheduleAfter(Milliseconds(1), *poll);
  };

  core.loop().ScheduleAfter(Milliseconds(1), [&] { request(3); });
  core.loop().ScheduleAfter(Milliseconds(10), [&] { request(1); });
  core.loop().ScheduleAfter(Milliseconds(1), *poll);

  // Background CFS work shows core sharing: it gets the non-granted cores.
  core.CreateTask("background", std::make_unique<CpuBoundBody>(Milliseconds(40), Milliseconds(1)),
                  cfs_policy);

  core.Start();
  core.RunFor(Milliseconds(20));

  auto* arbiter = static_cast<ArbiterSched*>(runtime.module());
  std::printf("\nfinal state: %zu cores granted to app %llu, %zu cores free for CFS\n",
              arbiter->granted_cores(kAppId), static_cast<unsigned long long>(kAppId),
              arbiter->free_cores());
  // The poller re-arms itself through `poll`; break that self-reference so
  // the example exits without leaking it.
  *poll = nullptr;
  // Cores 1..7 are arbitrated: after the requests for 3 and then 1, the app
  // holds one and CFS the other six.
  if (grants != 3 || reclaims != 2 || arbiter->granted_cores(kAppId) != 1 ||
      arbiter->free_cores() != 6) {
    std::fprintf(stderr, "FAIL: %d grants and %d reclaims; expected 3 and 2, ending at 1 granted\n",
                 grants, reclaims);
    return 1;
  }
  return 0;
}
