#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/logging.h"
#include "engine/spin.h"
#include "engine/steal_deque.h"
#include "hardware/topology.h"

namespace brisk::engine {

namespace {

int HostCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void PinThreadToCpu(std::thread& thread, int cpu) {
#if defined(__linux__)
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)cpu;
#endif
}

/// Wait-strategy thresholds: a worker that makes no progress spins
/// kSpinPasses times, yields kYieldPasses times, then parks on its
/// Waker until notified or the park timeout elapses.
constexpr int kSpinPasses = 64;
constexpr int kYieldPasses = 16;

/// Work quantum per Task::Poll visit: a bolt drains up to this many
/// envelopes, a spout produces up to this many batches, before the
/// worker moves to its next task.
constexpr int kPollBudget = 8;

/// How long an idle worker parks before re-scanning on its own.
/// Producers wake it earlier through the channel Waker hints; the
/// timeout covers wakes the hints cannot see (token-bucket refills).
constexpr auto kParkTimeout = std::chrono::microseconds(500);

/// Consecutive idle passes in which no intra-socket victim was found
/// before a worker is allowed one cross-socket steal attempt.
constexpr int kStealPatience = 4;

/// Consecutive idle polls after which a task stolen across sockets is
/// repatriated to a worker of its plan socket: a migrant that has gone
/// quiet drifts home instead of anchoring remote wake hints.
constexpr int kStealRepatriateAfter = 8;

}  // namespace

int PinCpuForSocketSlot(int socket, int slot, int cores_per_socket,
                        int host_cores) {
  if (host_cores <= 0) return -1;
  if (socket < 0) socket = 0;
  if (slot < 0) slot = 0;
  if (cores_per_socket <= 0) cores_per_socket = host_cores;
  const long cpu = static_cast<long>(socket) * cores_per_socket +
                   (slot % cores_per_socket);
  return static_cast<int>(cpu % host_cores);
}

int WorkersPerSocketFor(const EngineConfig& config,
                        const hw::MachineSpec* machine, int sockets_used) {
  if (config.workers_per_socket > 0) return config.workers_per_socket;
  const int host_share =
      std::max(1, HostCores() / std::max(1, sockets_used));
  if (machine != nullptr && machine->cores_per_socket() > 0) {
    return std::min(machine->cores_per_socket(), host_share);
  }
  return host_share;
}

namespace {

// ---------------------------------------------------------------------------
// Socket-aware worker pool with morsel-style work stealing.
//
// Every worker owns a bounded StealDeque; a task is always in exactly
// one deque or checked out by exactly one polling worker, so Task
// state needs no locking of its own. Steal policy (config.steal_work):
//   - A worker whose own pass made progress may still pull one task
//     from a same-socket sibling whose queue is >= 2 deeper (bounded
//     intra-group load balancing).
//   - A worker whose pass made no progress steals from the deepest
//     same-socket sibling holding >= 2 queued tasks; only after
//     kStealPatience consecutive idle rounds without an
//     intra-socket victim does it reach across sockets. RLAS placement
//     stays an affinity, not a straitjacket.
//   - A successful steal from a still-deep victim notifies one of the
//     victim's parked siblings, so backlog recruits the whole group.
//   - A task stolen across sockets that then idles for
//     kStealRepatriateAfter consecutive polls is sent back to
//     the least-loaded worker of its plan socket (and that worker is
//     woken) — but only once the home group has a worker with no
//     progressing work, so migrants ride out the skew instead of
//     ping-ponging against a still-saturated home socket. Migration
//     is for riding out skew, not permanent.
// Channel wake hints reach "whichever worker runs the task now"
// through per-instance WakerRefs that steals repoint atomically.
// ---------------------------------------------------------------------------

class WorkerPoolExecutor final : public Executor {
 public:
  WorkerPoolExecutor(const EngineConfig& config, StopSignals* signals,
                     std::vector<Task*> tasks,
                     std::vector<Channel*> channels,
                     const hw::MachineSpec* machine,
                     const hw::HostTopology* host)
      : config_(config),
        signals_(signals),
        channels_(std::move(channels)),
        machine_(machine),
        host_(host) {
    // Group tasks by their plan socket, preserving instance order.
    std::map<int, std::vector<Task*>> by_socket;
    int max_instance = -1;
    int max_socket = 0;
    for (Task* t : tasks) {
      by_socket[std::max(0, t->socket())].push_back(t);
      max_instance = std::max(max_instance, t->instance_id());
      max_socket = std::max(max_socket, t->socket());
    }
    const size_t total_tasks = tasks.size();
    worker_groups_ = static_cast<int>(by_socket.size());
    const int per_socket = WorkersPerSocketFor(
        config_, machine_, worker_groups_);
    // One Worker object per (socket, index); tasks round-robin within
    // their socket's group. While a socket has at least as many
    // one-to-one replica chains as workers, a chain is dealt as one:
    // its hand-offs then stay on one worker's cache until a steal
    // moves a task. Never spawn workers with nothing to do.
    // Deques are sized for the worst case (every task stolen into one
    // queue), so PushBack cannot fail mid-run.
    socket_to_group_.assign(static_cast<size_t>(max_socket) + 1, -1);
    for (auto& [socket, socket_tasks] : by_socket) {
      const int n = std::min(per_socket,
                             static_cast<int>(socket_tasks.size()));
      const size_t first = workers_.size();
      const int group = static_cast<int>(groups_.size());
      socket_to_group_[static_cast<size_t>(socket)] = group;
      groups_.push_back(Group{socket, first, static_cast<size_t>(n)});
      for (int w = 0; w < n; ++w) {
        workers_.push_back(std::make_unique<Worker>());
        workers_.back()->socket = socket;
        workers_.back()->index_in_socket = w;
        workers_.back()->group = group;
        workers_.back()->deque =
            std::make_unique<StealDeque>(total_tasks);
      }
      std::map<int, size_t> chain_slot;  // chain head -> round-robin slot
      for (Task* t : socket_tasks) {
        chain_slot.emplace(t->chain_head(), chain_slot.size());
      }
      const bool by_chain = chain_slot.size() >= static_cast<size_t>(n);
      for (size_t i = 0; i < socket_tasks.size(); ++i) {
        const size_t slot =
            by_chain ? chain_slot[socket_tasks[i]->chain_head()] : i;
        BRISK_CHECK(
            workers_[first + slot % n]->deque->PushBack(socket_tasks[i]));
      }
    }
    group_rotors_.reset(new std::atomic<uint32_t>[groups_.size()]());
    // instance id → movable wake target. The ref array is per
    // *instance* and stable for the executor's lifetime; steals only
    // repoint the targets. (Plain array: WakerRef holds an atomic and
    // cannot live in a resizable vector.)
    waker_refs_.reset(new WakerRef[static_cast<size_t>(max_instance) + 1]);
    for (auto& w : workers_) {
      const size_t depth = w->deque->SizeApprox();
      for (size_t i = 0; i < depth; ++i) {
        Task* t = w->deque->PopFront();
        waker_refs_[static_cast<size_t>(t->instance_id())].Point(
            &w->waker);
        BRISK_CHECK(w->deque->PushBack(t));
      }
    }
    for (Channel* ch : channels_) {
      ch->SetWakers(&waker_refs_[static_cast<size_t>(ch->to_instance())],
                    &waker_refs_[static_cast<size_t>(ch->from_instance())]);
    }
  }

  ~WorkerPoolExecutor() override {
    // Channels outlive the executor inside the runtime; drop the
    // dangling WakerRef pointers.
    for (Channel* ch : channels_) ch->SetWakers(nullptr, nullptr);
  }

  WorkerPoolExecutor(const WorkerPoolExecutor&) = delete;
  WorkerPoolExecutor& operator=(const WorkerPoolExecutor&) = delete;

  Status Start() override {
    const int host_cores = HostCores();
    const int cps = machine_ != nullptr ? machine_->cores_per_socket() : 0;
    for (auto& w : workers_) {
      w->thread = std::thread([this, worker = w.get()] { Loop(worker); });
      if (config_.pin_threads) {
        PinThreadToCpu(w->thread, PinCpuFor(w.get(), cps, host_cores));
      }
    }
    return Status::OK();
  }

  void NotifyAll() override {
    for (auto& w : workers_) w->waker.Notify();
  }

  void Join() override {
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }

  ExecutorStats stats() const override {
    ExecutorStats s;
    s.threads = static_cast<int>(workers_.size());
    s.worker_groups = worker_groups_;
    s.queue_depths.reserve(workers_.size());
    for (const auto& w : workers_) {
      s.parks += w->parks.value();
      s.wakes += w->wakes.value();
      s.steals_intra += w->steals_intra.value();
      s.steals_cross += w->steals_cross.value();
      s.steal_failures += w->steal_failures.value();
      s.repatriations += w->repatriations.value();
      s.queue_depths.push_back(w->deque->SizeApprox());
    }
    return s;
  }

  std::vector<uint64_t> Heartbeats() const override {
    std::vector<uint64_t> beats;
    beats.reserve(workers_.size());
    for (const auto& w : workers_) beats.push_back(w->heartbeat.value());
    return beats;
  }

  std::vector<size_t> QueueDepths() const override {
    std::vector<size_t> depths;
    depths.reserve(workers_.size());
    for (const auto& w : workers_) {
      depths.push_back(w->deque->SizeApprox());
    }
    return depths;
  }

 private:
  struct Worker {
    Waker waker;
    std::unique_ptr<StealDeque> deque;
    int socket = 0;
    int index_in_socket = 0;
    int group = 0;  // index into groups_
    // Single-writer (the owning worker thread); the stats()/
    // QueueDepths() cross-thread reads are relaxed.
    RelaxedCounter parks;
    RelaxedCounter wakes;
    RelaxedCounter steals_intra;
    RelaxedCounter steals_cross;
    RelaxedCounter steal_failures;
    RelaxedCounter repatriations;
    /// Scheduling passes completed (single-writer; the supervisor
    /// reads it cross-thread as a liveness signal).
    RelaxedCounter heartbeat;
    /// Tasks that made progress in the current/most recent own-queue
    /// pass (published live, mid-pass) — the steal policy's load
    /// signal. Deque depth cannot serve: tasks are persistent (every
    /// poll requeues), so depth measures assignment, not backlog, and
    /// depth-only stealing ping-pongs idle tasks between idle workers
    /// forever, defeating parking.
    RelaxedCounter busy_depth;
    /// 1 while a poll is in flight: the checked-out task still counts
    /// toward this worker's apparent load, or a 2-task worker could
    /// never be stolen from (one task in hand, one queued = depth 1).
    RelaxedCounter poll_in_flight;
    std::thread thread;
  };

  struct Group {
    int socket = 0;
    size_t first = 0;  // worker index range [first, first + size)
    size_t size = 0;
  };

  int PinCpuFor(const Worker* w, int cps, int host_cores) const {
    // On a detected multi-node host, honor the real topology: plan
    // socket → physical node (round-robin), slot → CPU of that node.
    if (host_ != nullptr && host_->real) {
      const auto& cpus = host_->CpusOfNode(w->socket);
      if (!cpus.empty()) {
        return cpus[static_cast<size_t>(w->index_in_socket) % cpus.size()];
      }
    }
    return PinCpuForSocketSlot(w->socket, w->index_in_socket, cps,
                               host_cores);
  }

  bool Stopped() const {
    return signals_->stop_all.load(std::memory_order_relaxed);
  }

  /// One service pass over the worker's own queue: each queued task is
  /// checked out, polled once, and requeued (front-pop + back-push =
  /// round-robin). Bounded by the pass-entry depth so steal-ins during
  /// the pass don't extend it unboundedly.
  bool OwnPass(Worker* w) {
    uint64_t busy = 0;
    const size_t depth = w->deque->SizeApprox();
    for (size_t i = 0; i < depth && !Stopped(); ++i) {
      Task* t = w->deque->PopFront();
      if (t == nullptr) break;  // thieves got there first
      w->poll_in_flight = 1;
      if (t->Poll(kPollBudget) == PollResult::kProgress) {
        // Publish immediately, not at pass end: a thief deciding
        // whether this worker is worth stealing from must see the
        // busy signal while a long poll is still grinding.
        ++busy;
        w->busy_depth = busy;
        t->set_sched_idle_streak(0);
      } else {
        t->set_sched_idle_streak(t->sched_idle_streak() + 1);
      }
      Requeue(w, t);
      w->poll_in_flight = 0;
    }
    w->busy_depth = busy;
    return busy > 0;
  }

  /// Requeue after a poll; cross-socket migrants that have idled long
  /// enough drift back to their plan socket — but only once (a) the
  /// home group has a worker with no progressing work and (b) this
  /// worker still has other work making progress. While home is
  /// saturated, returning an idle migrant would only be answered by
  /// the next cross steal; and a fully starved thief that sheds its
  /// migrants will immediately steal again — either way the task
  /// would ping-pong between sockets instead of riding out the skew
  /// where capacity is.
  void Requeue(Worker* w, Task* t) {
    const int home = GroupOfSocket(t->socket());
    if (config_.steal_work && home >= 0 && home != w->group &&
        t->sched_idle_streak() >= kStealRepatriateAfter &&
        w->busy_depth.value() > 0 &&
        GroupHasStarvedWorker(groups_[static_cast<size_t>(home)])) {
      Worker* target = ShallowestWorker(groups_[static_cast<size_t>(home)]);
      if (target != nullptr) {
        t->set_sched_idle_streak(0);
        MoveTaskTo(target, t);
        ++w->repatriations;
        target->waker.Notify();
        return;
      }
    }
    BRISK_CHECK(w->deque->PushBack(t));
  }

  /// Idle-path stealing. Returns true when a task was taken.
  bool IdleSteal(Worker* w, int* failed_intra_rounds) {
    if (StealFromGroup(w, groups_[static_cast<size_t>(w->group)],
                       /*min_depth=*/2, /*cross=*/false)) {
      *failed_intra_rounds = 0;
      return true;
    }
    ++*failed_intra_rounds;
    if (groups_.size() > 1 &&
        *failed_intra_rounds >= kStealPatience) {
      // Last resort: rotate over the other socket groups.
      const size_t n = groups_.size();
      for (size_t i = 1; i < n; ++i) {
        const size_t g = (static_cast<size_t>(w->group) + i) % n;
        if (StealFromGroup(w, groups_[g], /*min_depth=*/2,
                           /*cross=*/true)) {
          *failed_intra_rounds = 0;
          return true;
        }
      }
    }
    ++w->steal_failures;
    return false;
  }

  /// Busy-path balancing: even a progressing worker pulls one task
  /// from a same-socket sibling whose queue is >= 2 deeper than its
  /// own, so skew inside a group is bounded without waiting for
  /// anyone to go fully idle.
  void BalanceSteal(Worker* w) {
    const size_t mine = w->deque->SizeApprox();
    StealFromGroup(w, groups_[static_cast<size_t>(w->group)],
                   /*min_depth=*/mine + 2, /*cross=*/false);
  }

  /// Steals the least-recently-polled task of the deepest qualifying
  /// victim in `g` (depth >= min_depth AND at least one task made
  /// progress in the victim's latest pass — an all-idle queue is
  /// assignment, not backlog, and stealing from it just migrates
  /// idleness). On success the task's wake target is repointed to the
  /// thief before the task becomes pollable in the thief's queue, and
  /// one parked sibling of a still-deep victim is recruited.
  bool StealFromGroup(Worker* w, const Group& g, size_t min_depth,
                      bool cross) {
    Worker* victim = nullptr;
    size_t deepest = min_depth - 1;
    for (size_t i = g.first; i < g.first + g.size; ++i) {
      Worker* v = workers_[i].get();
      if (v == w) continue;
      if (v->busy_depth.value() == 0) continue;
      // The task a victim is polling right now still counts toward
      // its load: a 2-task worker mid-poll holds one in hand and one
      // queued, and the queued one is exactly what a thief should
      // take.
      const size_t d = v->deque->SizeApprox() +
                       static_cast<size_t>(v->poll_in_flight.value());
      if (d > deepest) {
        deepest = d;
        victim = v;
      }
    }
    if (victim == nullptr) return false;
    Task* t = victim->deque->PopFront();
    if (t == nullptr) return false;  // raced with the owner/thieves
    t->set_sched_idle_streak(0);
    MoveTaskTo(w, t);
    if (cross) {
      ++w->steals_cross;
    } else {
      ++w->steals_intra;
    }
    // Steal-in wakes a parked sibling of the victim: if one thief
    // found backlog there, the rest of the group should look too.
    if (victim->deque->SizeApprox() >= 2) NotifyOneSibling(victim);
    return true;
  }

  /// Hands a checked-out task to `target`: repoint the wake target
  /// first, then publish the task into the deque. A channel hint that
  /// races with the repoint wakes the previous owner spuriously —
  /// harmless, bounded by the park timeout — but is never lost.
  void MoveTaskTo(Worker* target, Task* t) {
    waker_refs_[static_cast<size_t>(t->instance_id())].Point(
        &target->waker);
    BRISK_CHECK(target->deque->PushBack(t));
  }

  int GroupOfSocket(int socket) const {
    const size_t s = static_cast<size_t>(std::max(0, socket));
    return s < socket_to_group_.size() ? socket_to_group_[s] : -1;
  }

  /// True when some worker of `g` made no progress on its latest pass
  /// — spare service capacity a repatriated migrant could use.
  bool GroupHasStarvedWorker(const Group& g) const {
    for (size_t i = g.first; i < g.first + g.size; ++i) {
      if (workers_[i]->busy_depth.value() == 0) return true;
    }
    return false;
  }

  Worker* ShallowestWorker(const Group& g) const {
    Worker* best = nullptr;
    size_t best_depth = 0;
    for (size_t i = g.first; i < g.first + g.size; ++i) {
      Worker* v = workers_[i].get();
      const size_t d = v->deque->SizeApprox();
      if (best == nullptr || d < best_depth) {
        best = v;
        best_depth = d;
      }
    }
    return best;
  }

  void NotifyOneSibling(Worker* victim) {
    const Group& g = groups_[static_cast<size_t>(victim->group)];
    if (g.size <= 1) return;
    const uint32_t r =
        group_rotors_[static_cast<size_t>(victim->group)].fetch_add(
            1, std::memory_order_relaxed);
    Worker* sib = workers_[g.first + r % g.size].get();
    if (sib != victim) sib->waker.Notify();
  }

  void Loop(Worker* w) {
    int idle_passes = 0;
    int failed_intra_rounds = 0;
    // The remembered park token: a park that ended by timeout (not
    // Notify) means nothing changed while we slept, so the next empty
    // pass skips the spin→yield ladder and parks immediately instead
    // of burning CPU re-spinning it pass after pass at low load.
    bool park_stale = false;
    while (!Stopped()) {
      ++w->heartbeat;
      const bool progress = OwnPass(w);
      if (Stopped()) break;
      if (progress) {
        idle_passes = 0;
        failed_intra_rounds = 0;
        park_stale = false;
        if (config_.steal_work) BalanceSteal(w);
        continue;
      }
      if (config_.steal_work && IdleSteal(w, &failed_intra_rounds)) {
        idle_passes = 0;
        park_stale = false;
        continue;
      }
      // Idle (or everything blocked/done): spin → yield → park. The
      // channel Wakers end the park early when work arrives or
      // back-pressure releases; the timeout covers everything else.
      ++idle_passes;
      if (park_stale || idle_passes > kSpinPasses + kYieldPasses) {
        ++w->parks;
        if (w->waker.WaitFor(kParkTimeout)) {
          ++w->wakes;
          park_stale = false;
        } else {
          park_stale = true;
        }
      } else if (idle_passes > kSpinPasses) {
        std::this_thread::yield();
      } else {
        CpuRelax();
      }
    }
  }

  EngineConfig config_;
  StopSignals* signals_;
  std::vector<Channel*> channels_;
  const hw::MachineSpec* machine_;
  const hw::HostTopology* host_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Group> groups_;
  std::vector<int> socket_to_group_;
  std::unique_ptr<std::atomic<uint32_t>[]> group_rotors_;
  std::unique_ptr<WakerRef[]> waker_refs_;
  int worker_groups_ = 0;
};

}  // namespace

std::unique_ptr<Executor> MakeExecutor(const EngineConfig& config,
                                       StopSignals* signals,
                                       std::vector<Task*> tasks,
                                       std::vector<Channel*> channels,
                                       const hw::MachineSpec* machine,
                                       const hw::HostTopology* host) {
  return std::make_unique<WorkerPoolExecutor>(config, signals,
                                              std::move(tasks),
                                              std::move(channels), machine,
                                              host);
}

}  // namespace brisk::engine
