// Checkpoint payload format tests for every checkpointing policy.
//
// Golden save bytes: each policy is driven into a fixed state on a fixed
// machine shape and its saved payload is compared word for word with a
// pinned copy. The per-policy round-trip tests elsewhere would still pass if
// save and load drifted together; these pins hold the byte format itself.
//
// Parser robustness: starting from each pinned payload, LoadCheckpoint is
// fed every truncation, a byte flip at every position and a batch of seeded
// random buffers. Under the sanitizer build nothing may be reported, and a
// refused load must leave the instance re-saving exactly the bytes it saved
// before.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/enoki/checkpoint.h"
#include "src/enoki/replay.h"
#include "src/sched/ext/central.h"
#include "src/sched/ext/layered.h"
#include "src/sched/ext/pair.h"
#include "src/sched/ext/rusty.h"
#include "src/sched/fifo.h"
#include "src/sched/ghost.h"
#include "src/sched/locality.h"
#include "src/sched/nest.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"

namespace enoki {
namespace {

// ReplayEnv with NUMA nodes and SMT siblings, for the topology-driven
// policies (pair, rusty).
class TopoEnv : public ReplayEnv {
 public:
  TopoEnv(int ncpus, int nodes, bool smt) : ReplayEnv(ncpus), nodes_(nodes), smt_(smt) {}
  int NodeOf(int cpu) const override { return cpu / (NumCpus() / nodes_); }
  int SiblingOf(int cpu) const override { return smt_ ? cpu ^ 1 : -1; }

 private:
  int nodes_;
  bool smt_;
};

// One checkpointing policy instance behind callables: GhostClass is a
// native SchedClass, not an EnokiSched, so there is no common base to use.
struct Subject {
  std::shared_ptr<void> owner;  // the environment and the policy
  std::function<bool(ByteWriter*)> save;
  std::function<bool(uint32_t, ByteReader*)> load;
  uint32_t version = 0;
};

template <typename Env, typename Policy>
Subject Hold(std::shared_ptr<Env> env, std::shared_ptr<Policy> policy) {
  Subject s;
  s.save = [p = policy.get()](ByteWriter* w) { return p->SaveCheckpoint(w); };
  s.load = [p = policy.get()](uint32_t v, ByteReader* r) { return p->LoadCheckpoint(v, r); };
  s.version = policy->CheckpointVersion();
  // Members die in reverse order: the policy before its environment.
  s.owner = std::make_shared<std::pair<std::shared_ptr<Env>, std::shared_ptr<Policy>>>(
      std::move(env), std::move(policy));
  return s;
}

TaskMessage Msg(uint64_t pid, int cpu, int nice = 0, Duration runtime = 0) {
  TaskMessage msg;
  msg.pid = pid;
  msg.cpu = cpu;
  msg.prev_cpu = cpu;
  msg.nice = nice;
  msg.runtime = runtime;
  return msg;
}

Schedulable Tok(uint64_t pid, int cpu) { return SchedulableMinter::Mint(pid, cpu, 1); }

HintBlob Hint(uint64_t w0, uint64_t w1) {
  HintBlob h;
  h.w[0] = w0;
  h.w[1] = w1;
  return h;
}

// Attaches a fresh policy to a fresh environment; `populate` then drives it
// into the pinned state.
struct Case {
  const char* name;
  std::function<Subject(bool populate)> make;
  std::vector<uint64_t> golden;  // the saved payload, as little-endian words
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({"wfq", [](bool populate) {
                     auto env = std::make_shared<ReplayEnv>(4);
                     auto p = std::make_shared<WfqSched>(0);
                     p->Attach(env.get());
                     if (populate) {
                       p->TaskNew(Msg(1, 0), Tok(1, 0));
                       p->TaskNew(Msg(2, 1, -5), Tok(2, 1));
                       p->TaskNew(Msg(3, 3, 5), Tok(3, 3));
                       (void)p->PickNextTask(0, std::nullopt);
                       p->TaskTick(0, 1, Milliseconds(3));
                       p->TaskPreempt(Msg(1, 0, 0, Milliseconds(3)), Tok(1, 0));
                       (void)p->PickNextTask(0, std::nullopt);
                       (void)p->PickNextTask(1, std::nullopt);
                     }
                     return Hold(env, p);
                   },
                   {4ull, 3000000ull, 0ull, 0ull, 0ull, 3ull, 1ull, 3000000ull, 1024ull,
                    3000000ull, 3000000ull, 0ull, 2ull, 0ull, 3121ull, 0ull, 0ull, 1ull, 3ull,
                    0ull, 335ull, 0ull, 0ull, 3ull}});
  cases.push_back({"fifo", [](bool populate) {
                     auto env = std::make_shared<ReplayEnv>(4);
                     auto p = std::make_shared<FifoSched>(0);
                     p->Attach(env.get());
                     if (populate) {
                       TaskMessage m = Msg(1, 0);
                       m.is_new = true;
                       for (int i = 0; i < 3; ++i) {
                         (void)p->SelectTaskRq(m);
                       }
                     }
                     return Hold(env, p);
                   },
                   {3ull}});
  cases.push_back({"shinjuku", [](bool populate) {
                     auto env = std::make_shared<ReplayEnv>(4);
                     auto p = std::make_shared<ShinjukuSched>(0);
                     p->Attach(env.get());
                     if (populate) {
                       for (uint64_t pid = 1; pid <= 3; ++pid) {
                         p->TaskNew(Msg(pid, 0), Tok(pid, 0));
                       }
                     }
                     return Hold(env, p);
                   },
                   {4ull}});
  cases.push_back({"locality", [](bool populate) {
                     auto env = std::make_shared<ReplayEnv>(4);
                     auto p = std::make_shared<LocalitySched>(0, /*use_hints=*/true);
                     p->Attach(env.get());
                     if (populate) {
                       p->ParseHint(Hint(1, 7));
                       p->ParseHint(Hint(2, 7));
                       p->ParseHint(Hint(3, 9));
                       p->ParseHint(Hint(4, 11));
                     }
                     return Hold(env, p);
                   },
                   {3ull, 3ull, 7ull, 0ull, 9ull, 1ull, 11ull, 2ull, 4ull, 1ull, 7ull, 2ull, 7ull,
                    3ull, 9ull, 4ull, 11ull}});
  cases.push_back({"nest", [](bool populate) {
                     auto env = std::make_shared<ReplayEnv>(4);
                     auto p = std::make_shared<NestSched>(0);
                     p->Attach(env.get());
                     if (populate) {
                       env->SetNow(Microseconds(500));
                       p->TaskNew(Msg(1, 2), Tok(1, 2));
                       (void)p->PickNextTask(2, std::nullopt);
                       env->SetNow(Microseconds(2500));
                       p->TaskNew(Msg(2, 3), Tok(2, 3));
                       (void)p->PickNextTask(3, std::nullopt);
                     }
                     return Hold(env, p);
                   },
                   {4ull, 0ull, 0ull, 500000ull, 2500000ull}});
  cases.push_back({"ghost", [](bool populate) {
                     auto core = std::make_shared<SchedCore>(MachineSpec::OneSocket8(), SimCosts{});
                     auto p = std::make_shared<GhostClass>(GhostClass::Mode::kPerCpuFifo,
                                                           CpuMask::All(8));
                     const int policy = core->RegisterClass(p.get());
                     if (populate) {
                       for (const char* name : {"g1", "g2"}) {
                         core->CreateTaskOn(
                             name, MakeFnBody([](SimContext&) { return Action::Exit(); }), policy,
                             0, CpuMask::All(8));
                       }
                     }
                     return Hold(core, p);
                   },
                   {3ull, 0ull, 2ull, 2ull}});
  cases.push_back({"central", [](bool populate) {
                     auto env = std::make_shared<ReplayEnv>(4);
                     auto p = std::make_shared<CentralSched>(0);
                     p->Attach(env.get());
                     if (populate) {
                       p->TaskNew(Msg(1, 1), Tok(1, 1));
                       p->TaskNew(Msg(2, 2), Tok(2, 2));
                     }
                     return Hold(env, p);
                   },
                   {3ull}});
  cases.push_back({"pair", [](bool populate) {
                     auto env = std::make_shared<TopoEnv>(4, 1, /*smt=*/true);
                     auto p = std::make_shared<PairSched>(0);
                     p->Attach(env.get());
                     if (populate) {
                       p->TaskNew(Msg(1, 0), Tok(1, 0));
                       p->TaskNew(Msg(2, 2), Tok(2, 2));
                       p->ParseHint(Hint(1, 7));
                       p->ParseHint(Hint(2, 9));
                       p->ParseHint(Hint(5, 3));
                     }
                     return Hold(env, p);
                   },
                   {3ull, 3ull, 1ull, 7ull, 2ull, 9ull, 5ull, 3ull}});
  cases.push_back({"layered", [](bool populate) {
                     auto env = std::make_shared<ReplayEnv>(8);
                     auto p = std::make_shared<LayeredSched>(0, LayeredSched::DefaultThreeTier(8));
                     p->Attach(env.get());
                     if (populate) {
                       p->TaskNew(Msg(1, 0, -10), Tok(1, 0));
                       p->TaskNew(Msg(2, 1, 0), Tok(2, 1));
                       p->TaskNew(Msg(3, 1, 19), Tok(3, 1));
                       (void)p->PickNextTask(0, std::nullopt);
                       (void)p->PickNextTask(1, std::nullopt);
                       (void)p->PickNextTask(1, std::nullopt);
                     }
                     return Hold(env, p);
                   },
                   {3ull, 2560000ull, 10240000ull, 40960000ull, 4ull}});
  cases.push_back({"rusty", [](bool populate) {
                     auto env = std::make_shared<TopoEnv>(8, 2, /*smt=*/false);
                     auto p = std::make_shared<RustySched>(0);
                     p->Attach(env.get());
                     if (populate) {
                       env->SetNow(Microseconds(100));
                       p->TaskNew(Msg(1, 0), Tok(1, 0));
                       p->TaskNew(Msg(2, 1), Tok(2, 1));
                       p->TaskNew(Msg(3, 4), Tok(3, 4));
                       env->SetNow(Milliseconds(8));
                       (void)p->DomainLoad(0);
                       (void)p->DomainLoad(1);
                     }
                     return Hold(env, p);
                   },
                   {4ull, 2ull, 5000000ull, 8000000ull, 1003ull, 6144000000ull, 2048ull,
                    5000000ull, 8000000ull, 501ull, 3072000000ull, 1024ull}});
  return cases;
}

std::vector<uint8_t> SaveOf(const Subject& s) {
  ByteWriter w;
  EXPECT_TRUE(s.save(&w));
  return w.Take();
}

// Little-endian words, decoded here rather than through ByteReader so the
// pins do not depend on the code under test.
std::vector<uint64_t> Words(const std::vector<uint8_t>& bytes) {
  std::vector<uint64_t> words(bytes.size() / 8, 0);
  for (size_t i = 0; i < words.size() * 8; ++i) {
    words[i / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  return words;
}

std::string Render(const std::vector<uint64_t>& words) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < words.size(); ++i) {
    out << (i == 0 ? "" : ", ") << words[i] << "ull";
  }
  out << "}";
  return out.str();
}

TEST(CheckpointGolden, SavedBytesMatchPinnedPayloads) {
  for (const Case& c : Cases()) {
    const std::vector<uint8_t> bytes = SaveOf(c.make(/*populate=*/true));
    EXPECT_EQ(bytes.size() % 8, 0u) << c.name;
    EXPECT_EQ(Words(bytes), c.golden) << c.name << " saved " << Render(Words(bytes));
  }
}


// Loads `bytes` into a fresh instance. A refused load must change nothing.
// Returns whether the load was accepted.
bool ProbeLoad(const Case& c, const std::vector<uint8_t>& bytes, uint32_t version,
               const std::string& what) {
  const Subject s = c.make(/*populate=*/false);
  const std::vector<uint8_t> before = SaveOf(s);
  ByteReader r(bytes);
  if (s.load(version, &r)) {
    return true;
  }
  EXPECT_EQ(SaveOf(s), before) << c.name << ": refused load changed state (" << what << ")";
  return false;
}

// A random buffer of words, half of them small so counts, pids and CPU
// indices often pass their bounds and the parse reaches deeper fields.
std::vector<uint8_t> RandomPayload(Rng& rng, size_t max_words) {
  std::vector<uint8_t> bytes;
  const uint64_t words = rng.NextBelow(max_words + 1);
  for (uint64_t i = 0; i < words; ++i) {
    const uint64_t w = rng.NextBelow(2) == 0 ? rng.NextBelow(8) : rng.Next();
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<uint8_t>(w >> (8 * b)));
    }
  }
  for (uint64_t tail = rng.NextBelow(8); tail > 0; --tail) {
    bytes.push_back(static_cast<uint8_t>(rng.Next()));
  }
  return bytes;
}

TEST(CheckpointParser, TruncationsFlipsAndRandomBuffersLeaveRefusedLoadsUnchanged) {
  Rng rng(20240416);
  for (const Case& c : Cases()) {
    const Subject donor = c.make(/*populate=*/true);
    const std::vector<uint8_t> good = SaveOf(donor);
    const uint32_t version = donor.version;
    EXPECT_TRUE(ProbeLoad(c, good, version, "intact")) << c.name << " refused its own payload";
    EXPECT_FALSE(ProbeLoad(c, good, 0, "version 0")) << c.name;
    EXPECT_FALSE(ProbeLoad(c, good, version + 1, "future version")) << c.name;
    for (size_t len = 0; len < good.size(); ++len) {
      const std::vector<uint8_t> cut(good.begin(), good.begin() + static_cast<ptrdiff_t>(len));
      EXPECT_FALSE(ProbeLoad(c, cut, version, "truncated to " + std::to_string(len)))
          << c.name << " accepted a truncation to " << len << " bytes";
    }
    for (size_t i = 0; i < good.size(); ++i) {
      std::vector<uint8_t> flipped = good;
      flipped[i] ^= 0xFF;
      (void)ProbeLoad(c, flipped, version, "flip at " + std::to_string(i));
    }
    for (int n = 0; n < 256; ++n) {
      (void)ProbeLoad(c, RandomPayload(rng, good.size() / 8 + 4), version,
                      "random buffer " + std::to_string(n));
    }
  }
}

// ReplayEnv that counts reschedule requests.
class ReschedCountingEnv : public ReplayEnv {
 public:
  using ReplayEnv::ReplayEnv;
  void ReschedCpu(int cpu) override { ++rescheds; }
  int rescheds = 0;
};

// A rollback target is checkpointed, quiesced by ReregisterPrepare,
// restored from the checkpoint and then gets every queued task back as a
// fresh wakeup. Each task must end up queued once, not twice.
template <typename Policy>
void ExpectRollbackTargetQueuesEachTaskOnce(Policy* p, ReschedCountingEnv* env) {
  p->Attach(env);
  p->TaskNew(Msg(1, 0), Tok(1, 0));
  ByteWriter w;
  ASSERT_TRUE(p->SaveCheckpoint(&w));
  (void)p->ReregisterPrepare();
  p->Attach(env);
  const std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  ASSERT_TRUE(p->LoadCheckpoint(p->CheckpointVersion(), &r));
  p->TaskWakeup(Msg(1, 0), Tok(1, 0));  // the runtime's re-injection
  ASSERT_TRUE(p->PickNextTask(0, std::nullopt).has_value());
  p->TaskTick(0, 1, Milliseconds(1));  // round-robin only if others wait
  EXPECT_EQ(env->rescheds, 0);
}

TEST(RestoreTarget, NestAndLocalityRollbackTargetsQueueEachTaskOnce) {
  {
    ReschedCountingEnv env(2);
    NestSched nest(0);
    ExpectRollbackTargetQueuesEachTaskOnce(&nest, &env);
  }
  {
    ReschedCountingEnv env(2);
    LocalitySched locality(0, /*use_hints=*/false);
    ExpectRollbackTargetQueuesEachTaskOnce(&locality, &env);
  }
}

}  // namespace
}  // namespace enoki
