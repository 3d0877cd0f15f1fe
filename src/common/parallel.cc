#include "common/parallel.hh"

#include <algorithm>

namespace dalorex
{

void
runIndexed(std::size_t n, unsigned threads,
           const std::function<void(std::size_t)>& job)
{
    const std::size_t workers =
        std::min<std::size_t>(std::max(1u, threads), n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            job(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
            job(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w)
        pool.emplace_back(drain);
    drain(); // the calling thread is worker 0
    for (std::thread& t : pool)
        t.join();
}

unsigned
defaultWorkerThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

WorkerCrew::WorkerCrew(unsigned members)
    : members_(std::max(1u, members))
{
    threads_.reserve(members_ - 1);
    for (unsigned m = 1; m < members_; ++m)
        threads_.emplace_back([this, m] { workerLoop(m); });
}

WorkerCrew::~WorkerCrew()
{
    stop_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    generation_.notify_all();
    for (std::thread& t : threads_)
        t.join();
}

void
WorkerCrew::runPhase(const std::function<void(unsigned)>& fn)
{
    if (members_ == 1) {
        fn(0);
        return;
    }
    phase_ = &fn;
    remaining_.store(members_, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    generation_.notify_all();

    fn(0); // the calling thread is member 0
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) > 1) {
        // Wait for the stragglers; the last one notifies.
        unsigned left = remaining_.load(std::memory_order_acquire);
        while (left != 0) {
            remaining_.wait(left, std::memory_order_acquire);
            left = remaining_.load(std::memory_order_acquire);
        }
    }
    phase_ = nullptr;
}

TreeBarrier::TreeBarrier(unsigned members)
    : members_(std::max(1u, members)), nodes_(members_)
{
}

void
TreeBarrier::waitFor(std::atomic<std::uint64_t>& flag,
                     std::uint64_t epoch)
{
    // Spin first: in a cycle loop barrier partners usually arrive
    // within microseconds, while parking costs a futex sleep and wake
    // on both sides of every sync. Past the first loads the spin
    // yields, so a partner waiting for this core (more members than
    // cores, or a busy host) runs, and it is bounded by wall time, so
    // a partner that stays away still finds this member parked.
    constexpr auto spinBudget = std::chrono::microseconds(50);
    constexpr int loadsBeforeYield = 64;
    for (int spin = 0; spin < loadsBeforeYield; ++spin) {
        if (flag.load(std::memory_order_acquire) >= epoch)
            return;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }
    const auto deadline = std::chrono::steady_clock::now() + spinBudget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (flag.load(std::memory_order_acquire) >= epoch)
            return;
        std::this_thread::yield();
    }
    std::uint64_t seen = flag.load(std::memory_order_acquire);
    while (seen < epoch) {
        flag.wait(seen, std::memory_order_acquire);
        seen = flag.load(std::memory_order_acquire);
    }
}

void
TreeBarrier::sync(unsigned member, const SerialFn* serial)
{
    Node& me = nodes_[member];
    const std::uint64_t epoch = ++me.epoch;
    if (members_ == 1) {
        if (serial != nullptr && *serial)
            (*serial)();
        return;
    }

    // Gather: wait until every arrival-tree child's subtree reached
    // this epoch, then report our own subtree upward. The acquire
    // chain makes every descendant's pre-sync writes visible here.
    const unsigned first_child = member * arriveArity + 1;
    for (unsigned c = first_child;
         c < first_child + arriveArity && c < members_; ++c)
        waitFor(nodes_[c].arrived, epoch);
    if (member != 0) {
        me.arrived.store(epoch, std::memory_order_release);
        me.arrived.notify_one();
        waitFor(me.released, epoch);
    } else if (serial != nullptr && *serial) {
        // The root has seen every arrival: the whole crew is inside
        // the barrier and the serial section owns the world.
        (*serial)();
    }

    // Scatter: release our wakeup-tree children; each forwards the
    // epoch downward, forming a release chain that publishes the
    // serial section's writes to every member.
    const unsigned first_wake = member * wakeArity + 1;
    for (unsigned c = first_wake;
         c < first_wake + wakeArity && c < members_; ++c) {
        nodes_[c].released.store(epoch, std::memory_order_release);
        nodes_[c].released.notify_one();
    }
}

void
CentralBarrier::Completion::operator()() noexcept
{
    const SerialFn* fn = self->serial_;
    self->serial_ = nullptr;
    if (fn != nullptr && *fn)
        (*fn)();
}

CentralBarrier::CentralBarrier(unsigned members)
    : barrier_(static_cast<std::ptrdiff_t>(std::max(1u, members)),
               Completion{this})
{
}

void
CentralBarrier::sync(unsigned member, const SerialFn* serial)
{
    // Member 0 stores before arriving; the completion step follows
    // every arrival, so the store is visible there.
    if (member == 0)
        serial_ = serial;
    barrier_.arrive_and_wait();
}

std::unique_ptr<PhaseBarrier>
makePhaseBarrier(EngineBarrier kind, unsigned members)
{
    if (kind == EngineBarrier::central)
        return std::make_unique<CentralBarrier>(members);
    return std::make_unique<TreeBarrier>(members);
}

void
WorkerCrew::workerLoop(unsigned member)
{
    std::uint64_t seen = 0;
    for (;;) {
        generation_.wait(seen, std::memory_order_acquire);
        seen = generation_.load(std::memory_order_acquire);
        if (stop_.load(std::memory_order_acquire))
            return;
        (*phase_)(member);
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            remaining_.notify_all();
    }
}

DeadlineWatchdog::~DeadlineWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

std::uint64_t
DeadlineWatchdog::arm(Clock::time_point when, std::atomic<bool>* flag)
{
    std::uint64_t token = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        token = nextToken_++;
        entries_[token] = Entry{when, flag};
        if (!thread_.joinable())
            thread_ = std::thread([this] { loop(); });
    }
    cv_.notify_all();
    return token;
}

void
DeadlineWatchdog::disarm(std::uint64_t token)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(token);
    // No wake needed: the loop re-checks the earliest deadline after
    // every timed wait, and a stale early wake-up is harmless.
}

std::size_t
DeadlineWatchdog::armed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
DeadlineWatchdog::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stop_)
            return;
        const Clock::time_point now = Clock::now();
        Clock::time_point earliest = Clock::time_point::max();
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->second.when <= now) {
                it->second.flag->store(true, std::memory_order_release);
                it = entries_.erase(it);
            } else {
                earliest = std::min(earliest, it->second.when);
                ++it;
            }
        }
        if (earliest == Clock::time_point::max())
            cv_.wait(lock);
        else
            cv_.wait_until(lock, earliest);
    }
}

DeadlineWatchdog&
processDeadlineWatchdog()
{
    static DeadlineWatchdog watchdog;
    return watchdog;
}

} // namespace dalorex
