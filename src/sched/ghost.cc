#include "src/sched/ghost.h"

#include <string>

namespace enoki {

void GhostClass::Attach(SchedCore* core) {
  SchedClass::Attach(core);
  const size_t n = static_cast<size_t>(core->ncpus());
  committed_.assign(n, 0);
  running_.assign(n, 0);
  running_since_.assign(n, 0);
  fifo_.resize(n);
  const size_t agents = mode_ == Mode::kPerCpuFifo ? n : 1;
  msgq_.resize(agents);
  for (size_t i = 0; i < agents; ++i) {
    agent_wq_.push_back(std::make_unique<WaitQueue>("ghost-agent-wq"));
  }
}

void GhostClass::SpawnAgents(int agent_policy, int agent_cpu) {
  if (mode_ == Mode::kPerCpuFifo) {
    for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
      if (!worker_cpus_.Test(cpu)) {
        agents_.push_back(nullptr);
        agent_cpus_.push_back(cpu);
        continue;
      }
      const int idx = cpu;
      Task* agent = core_->CreateTaskOn(
          "ghost-agent-" + std::to_string(cpu),
          MakeFnBody([this, idx](SimContext& ctx) -> Action {
            const Duration cost = AgentProcess(idx);
            if (cost > 0) {
              return Action::Compute(cost);
            }
            return Action::Block(agent_wq_[idx].get());
          }),
          agent_policy, 0, CpuMask::Single(cpu));
      agents_.push_back(agent);
      agent_cpus_.push_back(cpu);
    }
    return;
  }
  // Global agent spinning on a dedicated CPU.
  Task* agent = core_->CreateTaskOn(
      "ghost-agent-global",
      MakeFnBody([this](SimContext& ctx) -> Action {
        const Duration cost = AgentProcess(0);
        if (cost > 0) {
          return Action::Compute(cost);
        }
        // SOL/Shinjuku agents spin, polling their channels.
        return Action::Compute(kAgentSpinQuantumNs);
      }),
      agent_policy, 0, CpuMask::Single(agent_cpu));
  agents_.push_back(agent);
  agent_cpus_.push_back(agent_cpu);
}

void GhostClass::SendMsg(Msg::Type type, uint64_t pid, int cpu) {
  ++messages_;
  core_->ChargeCpu(cpu, core_->costs().ghost_msg_ns);
  const int idx = AgentIndexFor(cpu);
  msgq_[idx].push_back(Msg{type, pid, cpu});
  if (mode_ == Mode::kPerCpuFifo) {
    // Wake the (blocked) agent after message-transit latency. Deferring via
    // the event loop also models the asynchrony: the kernel proceeds without
    // waiting for the agent.
    WaitQueue* wq = agent_wq_[idx].get();
    core_->loop().ScheduleAfter(core_->costs().ghost_msg_ns, [this, wq, cpu] {
      if (wq->waiter_count() > 0) {
        core_->Signal(wq, /*sync=*/false, /*from_cpu=*/cpu);
      }
    });
  }
  // Spinning agents poll the channel; no wakeup needed.
}

int GhostClass::SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) {
  if (mode_ == Mode::kPerCpuFifo && is_new) {
    // Round-robin new tasks across worker CPUs.
    for (int i = 0; i < core_->ncpus(); ++i) {
      rr_cpu_ = (rr_cpu_ + 1) % core_->ncpus();
      if (worker_cpus_.Test(rr_cpu_) && t->affinity().Test(rr_cpu_)) {
        return rr_cpu_;
      }
    }
  }
  if (prev_cpu >= 0 && worker_cpus_.Test(prev_cpu) && t->affinity().Test(prev_cpu)) {
    return prev_cpu;
  }
  const CpuMask allowed = worker_cpus_.Intersect(t->affinity());
  return allowed.Empty() ? t->affinity().First() : allowed.First();
}

void GhostClass::EnqueueTask(int cpu, Task* t, bool wakeup) {
  GTask& gt = tasks_[t->pid()];
  gt.runnable = true;
  gt.running_cpu = -1;
  gt.home_cpu = cpu;
  gt.seq = next_seq_++;
  SendMsg(wakeup ? Msg::Type::kWakeup : Msg::Type::kNew, t->pid(), cpu);
}

void GhostClass::DequeueTask(int cpu, Task* t, DequeueReason reason) {
  auto it = tasks_.find(t->pid());
  if (it != tasks_.end()) {
    it->second.runnable = false;
    it->second.running_cpu = -1;
  }
  if (running_[cpu] == t->pid()) {
    running_[cpu] = 0;
  }
  for (auto& c : committed_) {
    if (c == t->pid()) {
      c = 0;
    }
  }
  if (reason == DequeueReason::kDead) {
    SendMsg(Msg::Type::kDead, t->pid(), cpu);
    tasks_.erase(t->pid());
  } else {
    SendMsg(Msg::Type::kBlocked, t->pid(), cpu);
  }
}

Task* GhostClass::PickNextTask(int cpu) {
  running_[cpu] = 0;
  const uint64_t pid = committed_[cpu];
  committed_[cpu] = 0;
  Task* t = nullptr;
  if (pid != 0) {
    auto it = tasks_.find(pid);
    if (it != tasks_.end() && it->second.runnable && it->second.running_cpu < 0) {
      t = core_->FindTask(pid);
      if (t != nullptr && t->state() == TaskState::kRunnable) {
        it->second.running_cpu = cpu;
        running_[cpu] = pid;
        running_since_[cpu] = core_->now();
        return t;
      }
    }
    // Stale commit: the asynchronous decision is out of date.
  }
  // Going idle with policy work still queued: nudge the per-CPU agent so a
  // fresh commit arrives (the CPU_AVAILABLE message in real ghOSt).
  if (mode_ == Mode::kPerCpuFifo && !fifo_[cpu].empty()) {
    SendMsg(Msg::Type::kBlocked, 0, cpu);
  }
  return nullptr;
}

void GhostClass::TaskPreempted(int cpu, Task* t) {
  GTask& gt = tasks_[t->pid()];
  gt.runnable = true;
  gt.running_cpu = -1;
  gt.seq = next_seq_++;
  if (running_[cpu] == t->pid()) {
    running_[cpu] = 0;
  }
  SendMsg(Msg::Type::kPreempt, t->pid(), cpu);
}

void GhostClass::TaskYielded(int cpu, Task* t) {
  GTask& gt = tasks_[t->pid()];
  gt.runnable = true;
  gt.running_cpu = -1;
  gt.seq = next_seq_++;
  if (running_[cpu] == t->pid()) {
    running_[cpu] = 0;
  }
  SendMsg(Msg::Type::kYield, t->pid(), cpu);
}

void GhostClass::Commit(int target_cpu, uint64_t pid, int agent_cpu) {
  ++commits_;
  committed_[target_cpu] = pid;
  core_->KickCpu(target_cpu, agent_cpu);
}

void GhostClass::TryCommitPerCpu(int cpu, int agent_cpu) {
  if (committed_[cpu] != 0 || running_[cpu] != 0) {
    return;
  }
  auto& q = fifo_[cpu];
  for (auto it = q.begin(); it != q.end();) {
    const uint64_t pid = *it;
    auto task_it = tasks_.find(pid);
    if (task_it == tasks_.end() || !task_it->second.runnable ||
        task_it->second.running_cpu >= 0) {
      it = q.erase(it);
      continue;
    }
    Task* t = core_->FindTask(pid);
    if (t == nullptr || !t->affinity().Test(cpu)) {
      ++it;
      continue;
    }
    q.erase(it);
    Commit(cpu, pid, agent_cpu);
    return;
  }
}

void GhostClass::TryCommitGlobal(int agent_cpu) {
  for (int cpu = 0; cpu < core_->ncpus() && !global_fifo_.empty(); ++cpu) {
    if (!worker_cpus_.Test(cpu) || committed_[cpu] != 0 || running_[cpu] != 0) {
      continue;
    }
    for (auto it = global_fifo_.begin(); it != global_fifo_.end();) {
      const uint64_t pid = *it;
      auto task_it = tasks_.find(pid);
      if (task_it == tasks_.end() || !task_it->second.runnable ||
          task_it->second.running_cpu >= 0) {
        it = global_fifo_.erase(it);
        continue;
      }
      Task* t = core_->FindTask(pid);
      if (t == nullptr || !t->affinity().Test(cpu)) {
        ++it;  // this CPU is not allowed for the queue head; try the next task
        continue;
      }
      global_fifo_.erase(it);
      Commit(cpu, pid, agent_cpu);
      break;
    }
  }
}

void GhostClass::ShinjukuScan(int agent_cpu) {
  if (global_fifo_.empty()) {
    return;
  }
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    if (!worker_cpus_.Test(cpu) || running_[cpu] == 0 || committed_[cpu] != 0) {
      continue;
    }
    if (core_->now() - running_since_[cpu] >= kShinjukuSliceNs) {
      // Preempt-and-requeue: commit the first eligible waiter over the long
      // runner.
      bool committed = false;
      for (auto it = global_fifo_.begin(); it != global_fifo_.end();) {
        const uint64_t pid = *it;
        auto task_it = tasks_.find(pid);
        if (task_it == tasks_.end() || !task_it->second.runnable ||
            task_it->second.running_cpu >= 0) {
          it = global_fifo_.erase(it);
          continue;
        }
        Task* t = core_->FindTask(pid);
        if (t == nullptr || !t->affinity().Test(cpu)) {
          ++it;
          continue;
        }
        global_fifo_.erase(it);
        Commit(cpu, pid, agent_cpu);
        committed = true;
        break;
      }
      if (committed && global_fifo_.empty()) {
        return;
      }
    }
  }
}

void GhostClass::CheckpointFields(CheckpointArchive* ar) {
  ar->NonZero(&next_seq_);
  ar->Word(&commits_);
  ar->Word(&messages_);
  ar->Cpu(&rr_cpu_, committed_.size());
}

Duration GhostClass::AgentProcess(int idx) {
  const SimCosts& costs = core_->costs();
  const int agent_cpu = agent_cpus_.empty() ? 0 : agent_cpus_[idx];
  if (!msgq_[idx].empty()) {
    const Msg msg = msgq_[idx].front();
    msgq_[idx].pop_front();
    const uint64_t commits_before = commits_;
    switch (msg.type) {
      case Msg::Type::kNew:
      case Msg::Type::kWakeup:
      case Msg::Type::kPreempt:
      case Msg::Type::kYield:
        if (mode_ == Mode::kPerCpuFifo) {
          fifo_[msg.cpu].push_back(msg.pid);
          TryCommitPerCpu(msg.cpu, agent_cpu);
        } else {
          global_fifo_.push_back(msg.pid);
          TryCommitGlobal(agent_cpu);
        }
        break;
      case Msg::Type::kBlocked:
      case Msg::Type::kDead:
        if (mode_ == Mode::kPerCpuFifo) {
          TryCommitPerCpu(msg.cpu, agent_cpu);
        } else {
          TryCommitGlobal(agent_cpu);
        }
        break;
    }
    const uint64_t ncommits = commits_ - commits_before;
    return costs.ghost_agent_op_ns + ncommits * costs.ghost_commit_ns;
  }
  if (mode_ == Mode::kShinjuku) {
    const uint64_t commits_before = commits_;
    ShinjukuScan(agent_cpu);
    const uint64_t ncommits = commits_ - commits_before;
    if (ncommits > 0) {
      return ncommits * costs.ghost_commit_ns;
    }
  }
  if (mode_ != Mode::kPerCpuFifo) {
    // Idle CPUs may still have work queued (e.g. a commit went stale).
    const uint64_t commits_before = commits_;
    TryCommitGlobal(agent_cpu);
    if (commits_ != commits_before) {
      return (commits_ - commits_before) * costs.ghost_commit_ns;
    }
  }
  return 0;
}

}  // namespace enoki
