/**
 * @file
 * RunSampler (see bench.hh): a SIGALRM interval timer whose handler
 * reads the sampled queue's current tick into a fixed buffer. The
 * handler only loads atomics and the tick and calls clock_gettime,
 * which is async-signal-safe; the buffer is static so it never
 * allocates. The tick is a plain member the interrupted run may be
 * writing, so the standard leaves the value read unspecified; an
 * aligned 64-bit load on the supported x86-64 hosts reads either the
 * old or the new tick, and a slightly early tick only moves one
 * sample.
 */

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <atomic>

#include "bench.hh"

namespace ifp::perfbench {

namespace {

/** 8 s of one run at the sampling period; later samples are dropped. */
constexpr std::size_t kMaxSamples = 16384;

TickSample buffer[kMaxSamples];
std::atomic<std::size_t> count{0};
std::atomic<const sim::EventQueue *> sampled{nullptr};
/** CLOCK_MONOTONIC seconds at which the sampled job started. */
double origin = 0.0;

double
monotonicS()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

void
onAlarm(int)
{
    const sim::EventQueue *eq = sampled.load(std::memory_order_relaxed);
    const std::size_t n = count.load(std::memory_order_relaxed);
    if (!eq || n >= kMaxSamples)
        return;
    buffer[n] = {monotonicS() - origin, eq->curTick()};
    count.store(n + 1, std::memory_order_relaxed);
}

void
setTimer(long period_us)
{
    itimerval t{};
    t.it_interval.tv_usec = period_us;
    t.it_value.tv_usec = period_us;
    setitimer(ITIMER_REAL, &t, nullptr);
}

} // namespace

void
RunSampler::start(const sim::EventQueue &eq, Clock::time_point job_start)
{
    static const bool installed = [] {
        struct sigaction sa {};
        sa.sa_handler = onAlarm;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        return sigaction(SIGALRM, &sa, nullptr) == 0;
    }();
    if (!installed)
        return;
    const double sinceStart = secondsSince(job_start);
    origin = monotonicS() - sinceStart;
    buffer[0] = {sinceStart, eq.curTick()};
    count.store(1, std::memory_order_relaxed);
    sampled.store(&eq, std::memory_order_relaxed);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    setTimer(kSamplePeriodUs);
}

std::vector<TickSample>
RunSampler::stop()
{
    const sim::EventQueue *eq = sampled.exchange(nullptr);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    setTimer(0);
    if (!eq)
        return {};
    std::vector<TickSample> out(buffer, buffer + count.load());
    out.push_back({monotonicS() - origin, eq->curTick()});
    return out;
}

} // namespace ifp::perfbench
