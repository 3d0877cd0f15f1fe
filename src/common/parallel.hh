/**
 * @file
 * Shared worker-thread machinery: a one-shot indexed pool for
 * embarrassingly parallel index spaces (the sweep orchestrator) and a
 * persistent phase crew for the cycle engine.
 *
 * Both live below src/sim and src/sweep so the simulation engine and
 * the sweep layer draw workers from one abstraction — `--threads N`
 * on a sweep splits into `--engine-threads` per engine times
 * N / engine-threads sweep workers, all built on this file.
 */

#ifndef DALOREX_COMMON_PARALLEL_HH
#define DALOREX_COMMON_PARALLEL_HH

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hh"

namespace dalorex
{

/**
 * Invoke `job(i)` for every i in [0, n) on up to `threads` workers.
 * Workers pull indices from a shared atomic counter and each invokes
 * the job on its own stack; results written into pre-sized slot `i`
 * are identical regardless of the thread count or scheduling order.
 * threads <= 1 (or n <= 1) runs inline on the calling thread. Blocks
 * until all jobs finish.
 */
void runIndexed(std::size_t n, unsigned threads,
                const std::function<void(std::size_t)>& job);

/** The host core count (>= 1): the default worker-pool size. */
unsigned defaultWorkerThreads();

/**
 * A persistent crew of workers executing one phase at a time.
 *
 * The owner repeatedly calls runPhase(fn); every member — the calling
 * thread is member 0 — runs fn(memberIndex) exactly once, and
 * runPhase returns after the last member finishes. Workers block on
 * C++20 atomic waits between phases, so an idle crew costs nothing
 * but memory.
 *
 * The cycle engine uses one crew per Machine::run: each member owns
 * one tile/router shard, and the per-cycle compute phases run as crew
 * phases with the serial commit in between on the caller.
 */
class WorkerCrew
{
  public:
    /** A crew of `members` (1 = no threads; runPhase runs inline). */
    explicit WorkerCrew(unsigned members);
    ~WorkerCrew();

    WorkerCrew(const WorkerCrew&) = delete;
    WorkerCrew& operator=(const WorkerCrew&) = delete;

    unsigned members() const { return members_; }

    /** Run fn(member) on every member; blocks until all finish. */
    void runPhase(const std::function<void(unsigned)>& fn);

  private:
    void workerLoop(unsigned member);

    unsigned members_ = 1;
    std::vector<std::thread> threads_;
    const std::function<void(unsigned)>* phase_ = nullptr;
    std::atomic<std::uint64_t> generation_{0};
    std::atomic<unsigned> remaining_{0};
    std::atomic<bool> stop_{false};
};

/**
 * A reusable rendezvous for a fixed crew of members running the same
 * phase sequence in lockstep (the cycle engine's SPMD loop).
 *
 * sync(member) blocks until every member has arrived, then releases
 * them all; sync(member, serial) additionally runs `*serial` exactly
 * once between the last arrival and the first release — the engine's
 * per-cycle serial section (delta merge, idle/termination decision)
 * rides inside the barrier instead of costing a second rendezvous.
 *
 * Contract: all members pass the same `serial` pointer at a given
 * sync point (the call sites are lockstep by construction). Memory
 * ordering is full-barrier semantics: every member's pre-sync writes
 * happen-before the serial function, whose writes happen-before every
 * member's return.
 */
class PhaseBarrier
{
  public:
    using SerialFn = std::function<void()>;

    virtual ~PhaseBarrier() = default;

    /** Arrive and wait; the completing member runs `*serial` (when
     *  non-null and non-empty) before anyone is released. */
    virtual void sync(unsigned member, const SerialFn* serial) = 0;

    void sync(unsigned member) { sync(member, nullptr); }
};

/**
 * MCS-style sense-reversing tree barrier: members gather up a 4-ary
 * arrival tree and are released down a binary wakeup tree, every
 * member spinning only on its own cache-line-aligned node (then
 * parking on a C++20 atomic wait). The serial section runs on the
 * root — member 0, the engine's calling thread — so per-cycle serial
 * work stays on one deterministic thread. Epoch counters replace
 * boolean sense flags: a monotonically increasing generation needs no
 * reset phase and cannot alias across back-to-back syncs.
 */
class TreeBarrier final : public PhaseBarrier
{
  public:
    explicit TreeBarrier(unsigned members);

    void sync(unsigned member, const SerialFn* serial) override;

    static constexpr unsigned arriveArity = 4;
    static constexpr unsigned wakeArity = 2;

  private:
    /** One member's flags, alone on their cache line so arrival and
     *  release traffic never false-shares between members. */
    struct alignas(64) Node
    {
        std::atomic<std::uint64_t> arrived{0};
        std::atomic<std::uint64_t> released{0};
        /** Member-local sync generation (only its owner touches it). */
        std::uint64_t epoch = 0;
    };

    /** Spin up to a fixed wall-time budget on `flag >= epoch`, then
     *  park on an atomic wait. */
    static void waitFor(std::atomic<std::uint64_t>& flag,
                        std::uint64_t epoch);

    unsigned members_;
    std::vector<Node> nodes_;
};

/**
 * Centralized reference barrier on std::barrier. Exists as the
 * byte-identical baseline the tree barrier is benchmarked and
 * determinism-tested against; the serial section runs as the
 * std::barrier completion step (on an unspecified member's thread).
 */
class CentralBarrier final : public PhaseBarrier
{
  public:
    explicit CentralBarrier(unsigned members);

    void sync(unsigned member, const SerialFn* serial) override;

  private:
    struct Completion
    {
        CentralBarrier* self;
        void operator()() noexcept;
    };

    /** The current sync point's serial section; member 0 stores it
     *  before arriving, so its write happens-before the completion
     *  step (which follows every arrival). */
    const SerialFn* serial_ = nullptr;
    std::barrier<Completion> barrier_;
};

/** Build the configured barrier flavor for `members` members. */
std::unique_ptr<PhaseBarrier> makePhaseBarrier(EngineBarrier kind,
                                               unsigned members);

/**
 * A monotonic-clock deadline watchdog: arm() registers an atomic flag
 * to be set once std::chrono::steady_clock passes `when`; disarm()
 * withdraws it (the common case — the run finished in time). One
 * background thread, started lazily on the first arm, sleeps until
 * the earliest armed deadline, so an idle watchdog costs nothing and
 * a process full of deadline-carrying runs costs one thread total.
 *
 * The flag outlives the engine poll site that reads it: the engine's
 * serial tail checks it once per cycle, so expiry unwinds the run
 * within one simulated cycle of wall work. Callers must disarm before
 * destroying the flag.
 */
class DeadlineWatchdog
{
  public:
    using Clock = std::chrono::steady_clock;

    DeadlineWatchdog() = default;
    ~DeadlineWatchdog();

    DeadlineWatchdog(const DeadlineWatchdog&) = delete;
    DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;

    /** Set `*flag` when the clock passes `when`; returns a token for
     *  disarm(). `flag` must stay valid until disarmed or fired. */
    std::uint64_t arm(Clock::time_point when, std::atomic<bool>* flag);

    /** Withdraw an armed deadline (no-op if it already fired). */
    void disarm(std::uint64_t token);

    /** Deadlines currently armed (test introspection). */
    std::size_t armed() const;

  private:
    struct Entry
    {
        Clock::time_point when;
        std::atomic<bool>* flag = nullptr;
    };

    void loop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Entry> entries_;
    std::uint64_t nextToken_ = 1;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * The process-wide watchdog every deadline-carrying run shares
 * (`--deadline-ms` on the CLI, per-request `deadline_ms` in serve,
 * per-row budgets on sweep). One thread for the whole process.
 */
DeadlineWatchdog& processDeadlineWatchdog();

} // namespace dalorex

#endif // DALOREX_COMMON_PARALLEL_HH
