/**
 * @file
 * Span recorder and per-pass tally (see bench.hh).
 */

#include <cctype>
#include <sstream>

#include "bench.hh"
#include "sim/stats.hh"

namespace ifp::perfbench {

int
Tracer::open(const char *name, std::uint64_t job)
{
    if (!enabled)
        return -1;
    SpanRecord rec;
    rec.name = name;
    rec.startS = secondsSince(epoch);
    rec.parent = stack.empty() ? -1 : stack.back();
    rec.job = job;
    records.push_back(std::move(rec));
    const int index = static_cast<int>(records.size()) - 1;
    stack.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    if (index < 0)
        return;
    const double now = secondsSince(epoch);
    // Close @p index and any child an exception left open.
    while (!stack.empty()) {
        const int top = stack.back();
        stack.pop_back();
        SpanRecord &rec = records[top];
        rec.endS = now;
        rec.selfS += rec.endS - rec.startS;
        if (rec.parent >= 0)
            records[rec.parent].selfS -= rec.endS - rec.startS;
        if (top == index)
            break;
    }
}

void
Tally::mixDigest(const std::string &text)
{
    for (unsigned char c : text) {
        digest ^= c;
        digest *= 0x100000001b3ULL;
    }
    mixDigest(std::uint64_t{0xff});
}

void
Tally::mixDigest(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ULL;
    }
}

void
Tally::record(const std::string &job, const std::string &why)
{
    ++attempted;
    if (!why.empty()) {
        ++failed;
        failures.push_back(job + ": " + why);
    }
}

namespace {

/** "cu3" -> true: a compute unit's own group (not its L1). */
bool
isCuGroup(const std::string &name)
{
    if (name.size() < 3 || name.compare(0, 2, "cu") != 0)
        return false;
    for (std::size_t i = 2; i < name.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(name[i])))
            return false;
    }
    return true;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

void
Tally::harvest(const std::string &job, const core::GpuSystem &system,
               const core::RunResult &r, double run_s)
{
    runS += run_s;
    verdicts[core::verdictName(r.verdict)] += 1;
    atomics += static_cast<double>(r.atomicInstructions);

    sim["sim.events"] += static_cast<double>(r.hostEvents);
    sim["sim.gpu_cycles"] += static_cast<double>(r.gpuCycles);
    sim["sim.ticks"] += static_cast<double>(r.runTicks);
    sim["mem.requests"] += static_cast<double>(r.memRequests);
    sim["gpu.instructions"] += static_cast<double>(r.instructions);
    sim["gpu.forced_preemptions"] +=
        static_cast<double>(r.forcedPreemptions);
    sim["syncmon.predicted_resumes"] +=
        static_cast<double>(r.predictedResumes);
    sim["syncmon.mispredicted_resumes"] +=
        static_cast<double>(r.mispredictedResumes);
    sim["gpu.wg_lifetime_cycles"] += r.wgLifetimeCycles;
    for (std::size_t i = 0; i < sim::numStallReasons; ++i) {
        sim[std::string("gpu.wg_cycles.") +
            sim::stallReasonName(static_cast<sim::StallReason>(i))] +=
            r.wgCycleBreakdown[i];
    }
    sim["gpu.cu_cycles"] += static_cast<double>(r.gpuCycles) *
                            system.config().gpu.numCus;

    mixDigest(job);
    mixDigest(static_cast<std::uint64_t>(r.verdict));
    mixDigest(r.gpuCycles);
    mixDigest(r.atomicInstructions);
    mixDigest(r.hostEvents);

    // Stat groups by component kind. A scalar a policy does not
    // register (e.g. SyncMon under Timeout) simply adds nothing.
    auto add = [&](const sim::StatGroup &g, const char *stat,
                   const std::string &key) {
        if (const sim::Scalar *s = g.tryScalar(stat))
            sim[key] += s->value();
    };
    std::ostringstream stats;
    system.forEachStatGroup([&](const sim::StatGroup &g) {
        g.dumpJson(stats);
        const std::string &n = g.name();
        if (n == "l2") {
            for (const char *s : {"hits", "misses", "atomics",
                                  "waitingAtomics", "waitFails",
                                  "queueTicks"})
                add(g, s, std::string("l2.") + s);
        } else if (n == "dma") {
            add(g, "busyTicks", "dma.busyTicks");
        } else if (n == "cp") {
            for (const char *s : {"contextSaves", "contextRestores",
                                  "rescuesFired", "spilledResumes"})
                add(g, s, std::string("cp.") + s);
        } else if (n == "dispatcher") {
            for (const char *s : {"dispatches", "swapOuts", "swapIns"})
                add(g, s, std::string("dispatcher.") + s);
        } else if (n == "syncmon") {
            for (const char *s : {"registrations", "spills",
                                  "logFullRetries", "resumesAll",
                                  "resumesOne", "stallTimeouts"})
                add(g, s, std::string("syncmon.") + s);
            // Registered by every SyncMon configuration.
            const sim::Histogram &lat = g.histogram("waitLatency");
            sim["syncmon.waitLatency.samples"] +=
                static_cast<double>(lat.samples());
            sim["syncmon.waitLatency.sum"] +=
                static_cast<double>(lat.samples()) * lat.mean();
        } else if (isCuGroup(n)) {
            add(g, "activeCycles", "cu.activeCycles");
        } else if (endsWith(n, ".l1")) {
            add(g, "hits", "l1.hits");
            add(g, "misses", "l1.misses");
        }
    });
    mixDigest(stats.str());
}

} // namespace ifp::perfbench
