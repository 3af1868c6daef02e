/**
 * @file
 * Benchmark program: runs one workload for a time budget and prints its
 * metrics.
 *
 *   ifp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--spans-out FILE]
 *
 * The workload's set-up is repeated kSetupReps times, then whole passes
 * run serially until the next one would overrun the budget, which also
 * counts the set-up (at least one pass; two with --trace 1, which
 * alternates untraced and traced passes so the tracing overhead is
 * measured inside one process). Every pass must produce the same
 * simulated digest. Host times are taken part by part at each part's
 * fastest over the passes (see floorWall), a simulated run in 2 ms
 * slices of its work (see jobFloors), cheap jobs may get extra samples
 * from repeat passes (see cheapJobs), and the passes rotate over the
 * allowed CPUs (see CpuRotation). The last line of stdout is one JSON
 * object: the end-to-end metrics untraced, the per-layer metrics
 * traced.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace {

using namespace ifp::perfbench;
namespace sim = ifp::sim;

constexpr int kSetupReps = 64;
/** Host length of the slices a sampled run's floor is taken over. */
constexpr double kSliceS = 0.002;
/**
 * The reference loop's time that host times are scaled to: about its
 * fastest on the 4-core x86-64 host the figures in README.md come from,
 * so they read close to that host's seconds at its quietest.
 */
constexpr double kReferenceS = 400e-6;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

struct PassResult
{
    bool traced = false;
    /** A repeat pass: timing samples for cheap jobs only. */
    bool repeat = false;
    double wallS = 0.0;
    Tally tally;
    std::size_t spanBegin = 0;
    std::size_t spanEnd = 0;
};

/** One printed metric; a ratio carries its base for the report. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string base = "";
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The sample with exactly @p beyond samples above it. Nearest rank, no
 * interpolation: grid-oversub's jobs form clusters with wide gaps, and
 * a value averaged across a gap moves with the noise of both sides.
 */
double
valueWithBeyond(std::vector<double> v, std::size_t beyond)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() > beyond ? v.size() - beyond - 1 : 0];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
usage(std::ostream &os)
{
    os << "usage: ifp_perfbench --workload NAME --seed N --seconds S "
          "--trace 0|1 [--spans-out FILE]\nworkloads:";
    for (const Workload &w : workloads())
        os << " " << w.name;
    os << "\n";
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (*end || !(opt.seconds > 0))
                return false;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return false;
            opt.trace = v[0] == '1';
        } else if (a == "--spans-out") {
            opt.spansOut = v;
        } else {
            return false;
        }
    }
    return !opt.workload.empty();
}

/** The host time, in seconds since its job started, at which a run
 * reached @p tick, interpolated between the samples around it. */
double
timeAtTick(const std::vector<TickSample> &samples, sim::Tick tick)
{
    auto it = std::lower_bound(
        samples.begin(), samples.end(), tick,
        [](const TickSample &s, sim::Tick t) { return s.tick < t; });
    if (it == samples.begin())
        return it->s;
    if (it == samples.end())
        return samples.back().s;
    const TickSample &a = *(it - 1);
    const TickSample &b = *it;
    return a.s + (b.s - a.s) * static_cast<double>(tick - a.tick) /
                     static_cast<double>(b.tick - a.tick);
}

/** Ticks that cut one pass's run, sampled as @p samples, into slices
 * of about kSliceS host seconds. */
std::vector<sim::Tick>
sliceTicks(const std::vector<TickSample> &samples)
{
    std::vector<sim::Tick> ticks;
    double last = samples.front().s;
    sim::Tick prev = samples.front().tick;
    for (const TickSample &x : samples) {
        if (x.s - last >= kSliceS && x.tick > prev &&
            x.tick < samples.back().tick) {
            ticks.push_back(x.tick);
            last = x.s;
            prev = x.tick;
        }
    }
    return ticks;
}

/**
 * Replace the tick samples of pass @p t by the host time of each slice
 * of each sampled run. A run is cut at the ticks of the first pass that
 * sampled it (@p ticks_by_job, filled on first sight), so a slice is the
 * same work in every pass; its first slice also holds the job's set-up.
 */
void
sliceRuns(Tally &t,
          std::map<std::size_t, std::vector<sim::Tick>> &ticks_by_job)
{
    for (const auto &[j, samples] : t.jobSamples) {
        auto it = ticks_by_job.find(j);
        if (it == ticks_by_job.end())
            it = ticks_by_job.emplace(j, sliceTicks(samples)).first;
        std::vector<double> &slices = t.jobSlices[j];
        double prev = 0.0;
        for (sim::Tick tick : it->second) {
            const double edge = timeAtTick(samples, tick);
            slices.push_back(edge - prev);
            prev = edge;
        }
        slices.push_back(1e-3 * t.jobMs[j] - prev);
    }
    t.jobSamples.clear();
}

/**
 * Per job (@p jobs) or per DFS cell, the fastest over @p passes of the
 * reference loop run just before it; infinity for a part no reference
 * run preceded. Repeat passes count only for the jobs they re-ran.
 */
std::vector<double>
referenceFloors(const std::vector<const PassResult *> &passes, bool jobs)
{
    const Tally &first = passes.front()->tally;
    const std::size_t n = jobs ? first.jobMs.size() : first.cellS.size();
    std::vector<double> floors(n, std::numeric_limits<double>::infinity());
    for (const PassResult *p : passes) {
        const Tally &t = p->tally;
        if (t.jobMs.size() != first.jobMs.size() ||
            t.cellS.size() != first.cellS.size())
            continue;
        const std::vector<std::size_t> &at =
            jobs ? t.referenceJob : t.referenceCell;
        for (std::size_t k = 0; k < at.size(); ++k) {
            const std::size_t end = k + 1 < at.size() ? at[k + 1] : n;
            for (std::size_t i = at[k]; i < end; ++i) {
                if (!jobs || !std::isnan(t.jobMs[i]))
                    floors[i] = std::min(floors[i], t.referenceS[k]);
            }
        }
    }
    return floors;
}

/** Host time @p t at the reference speed, given the reference loop's
 * time @p ref measured alongside it. */
double
atReference(double t, double ref)
{
    return std::isfinite(ref) ? t * kReferenceS / ref : t;
}

/**
 * Each job's floor over @p passes, skipping the jobs a repeat pass left
 * out. A job sliced in every pass (see sliceRuns) counts each slice at
 * its fastest: a burst of load from other tenants counts only where it
 * hit that slice every time. A long job rarely runs whole through a
 * quiet spell; a 2 ms slice does. Other jobs count at their fastest
 * whole. Each floor is then scaled to the reference speed by the
 * fastest reference loop run before the job in the same passes: a
 * floor taken while the whole host ran slow is divided by a reference
 * that ran as slow. Passes whose jobs do not line up with the first (a
 * job threw in only some of them) are left out.
 */
std::vector<double>
jobFloors(const std::vector<const PassResult *> &passes)
{
    const std::size_t jobs = passes.front()->tally.jobMs.size();
    std::vector<double> floors(jobs, 0.0);
    for (std::size_t j = 0; j < jobs; ++j) {
        std::vector<const Tally *> timed;
        bool sliced = true;
        for (const PassResult *p : passes) {
            const Tally &t = p->tally;
            if (t.jobMs.size() != jobs || std::isnan(t.jobMs[j]))
                continue;
            timed.push_back(&t);
            sliced = sliced && t.jobSlices.count(j);
        }
        // A job that threw in every pass has no time (and the run is
        // already marked incorrect).
        if (timed.empty())
            continue;
        if (!sliced) {
            floors[j] = std::numeric_limits<double>::infinity();
            for (const Tally *t : timed)
                floors[j] = std::min(floors[j], t->jobMs[j]);
            continue;
        }
        std::vector<double> fastest = timed.front()->jobSlices.at(j);
        for (const Tally *t : timed) {
            const std::vector<double> &slices = t->jobSlices.at(j);
            for (std::size_t k = 0; k < fastest.size(); ++k)
                fastest[k] = std::min(fastest[k], slices[k]);
        }
        for (double s : fastest)
            floors[j] += 1e3 * s;
    }
    const std::vector<double> refs = referenceFloors(passes, true);
    for (std::size_t j = 0; j < jobs; ++j)
        floors[j] = atReference(floors[j], refs[j]);
    return floors;
}

/**
 * A pass's host time, part by part at each part's fastest: every job
 * at its floor (@p job_floor_ms), every DFS cell at its minimum over
 * the full passes @p passes, plus the minimum of what those passes
 * spent between the parts, leaving out the reference loop. Bursts of
 * load from other tenants of a shared host then count only where they
 * hit the same part in every pass. Like the job floors, cells and the
 * remainder are scaled to the reference speed.
 */
double
floorWall(const std::vector<const PassResult *> &passes,
          const std::vector<double> &job_floor_ms)
{
    std::vector<double> cells = passes.front()->tally.cellS;
    double rest = std::numeric_limits<double>::infinity();
    double restRef = std::numeric_limits<double>::infinity();
    for (const PassResult *p : passes) {
        const Tally &t = p->tally;
        if (t.jobMs.size() != job_floor_ms.size() ||
            t.cellS.size() != cells.size())
            continue;
        double parts = 0.0;
        for (double ms : t.jobMs)
            parts += std::isnan(ms) ? 0.0 : 1e-3 * ms;
        for (std::size_t i = 0; i < t.cellS.size(); ++i) {
            cells[i] = std::min(cells[i], t.cellS[i]);
            parts += t.cellS[i];
        }
        for (double r : t.referenceS) {
            parts += r;
            restRef = std::min(restRef, r);
        }
        rest = std::min(rest, p->wallS - parts);
    }
    double wall = atReference(rest, restRef);
    for (double ms : job_floor_ms)
        wall += 1e-3 * ms;
    const std::vector<double> refs = referenceFloors(passes, false);
    for (std::size_t i = 0; i < cells.size(); ++i)
        wall += atReference(cells[i], refs[i]);
    return wall;
}

/**
 * The jobs a repeat pass should re-run: those whose floor is within
 * 10x of the median job's, provided together they cost at most a
 * quarter of a pass. A workload whose pass is dominated by a few long
 * jobs (grid-oversub's thrashing cells) gives its many short jobs
 * only a handful of samples per run; repeating just those brings
 * their floors, and so the job percentiles, to rest on as many
 * samples as the long jobs' budget allows. Empty: no repeat pass.
 */
std::vector<bool>
cheapJobs(const std::vector<double> &floors)
{
    if (floors.empty())
        return {};
    std::vector<double> sorted = floors;
    std::sort(sorted.begin(), sorted.end());
    const double limit = 10.0 * sorted[(sorted.size() - 1) / 2];
    std::vector<bool> keep(floors.size());
    double cheap = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < floors.size(); ++i) {
        keep[i] = floors[i] <= limit;
        cheap += keep[i] ? floors[i] : 0.0;
        total += floors[i];
    }
    return cheap <= 0.25 * total ? keep : std::vector<bool>{};
}

/**
 * Pins the process to each CPU it may use in turn. On a shared host
 * each core slows down on its own when other tenants load it (its
 * SMT sibling, say), so a slow core can hold a whole run. Moving to
 * the next core for every set-up repetition and every pass lets the
 * per-part floors sample several cores. The original mask is restored
 * on destruction.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof original, &original) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &original))
                cpus.push_back(c);
        }
    }
    ~CpuRotation()
    {
        if (!cpus.empty())
            sched_setaffinity(0, sizeof original, &original);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next allowed CPU (no-op when pinning fails). */
    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original{};
    std::vector<int> cpus;
    std::size_t turn = 0;
};

/**
 * Peak resident set of this program, in MB. VmHWM belongs to the
 * address space exec created; getrusage's ru_maxrss, the fallback,
 * also keeps the high-water mark of the process image before exec,
 * e.g. the Python interpreter that launched this program.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Span totals of one traced pass, by span name and by layer. */
struct SpanTotals
{
    std::map<std::string, double> byName;      //!< summed durations
    std::map<std::string, double> selfByLayer; //!< summed self times
    double topLevel = 0.0;                     //!< spans without parent
    std::size_t count = 0;
};

SpanTotals
totalSpans(const std::vector<SpanRecord> &spans, std::size_t begin,
           std::size_t end)
{
    SpanTotals t;
    for (std::size_t i = begin; i < end; ++i) {
        const SpanRecord &s = spans[i];
        const double dur = s.endS - s.startS;
        t.byName[s.name] += dur;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        // explore's own time is what a walk spends outside the
        // construct and run phases of its schedules; the exhaustive
        // DFS hides its runs, so it is reported whole instead.
        if (s.name != "explore.exhaustive")
            t.selfByLayer[layer] += s.selfS;
        if (s.parent < 0)
            t.topLevel += dur;
    }
    t.count = end - begin;
    return t;
}

/** Per-layer metrics of one traced pass. */
std::vector<Metric>
perLayer(const PassResult &p, const SpanTotals &st)
{
    const Tally &t = p.tally;
    auto sim = [&](const std::string &k) {
        auto it = t.sim.find(k);
        return it == t.sim.end() ? 0.0 : it->second;
    };
    auto span = [&](const std::string &k) {
        auto it = st.byName.find(k);
        return it == st.byName.end() ? 0.0 : it->second;
    };
    auto self = [&](const std::string &k) {
        auto it = st.selfByLayer.find(k);
        return it == st.selfByLayer.end() ? 0.0 : it->second;
    };
    // A ratio metric, printed with its base.
    auto per = [](const char *name, double num, double den,
                  const char *unit, const char *what, double scale = 1.0) {
        return Metric{name, scale * ratio(num, den), unit,
                      what + std::string(" = ") + fmt(num) + " / " +
                          fmt(den)};
    };
    const double events = sim("sim.events");
    const double cycles = sim("sim.gpu_cycles");
    const double ticksPerCycle = ratio(sim("sim.ticks"), cycles);
    const double lifetime = sim("gpu.wg_lifetime_cycles");
    const double predicted = sim("syncmon.predicted_resumes");
    const double schedules = sim("explore.schedules");
    auto wgShare = [&](const char *name, const char *reason) {
        return per(name, sim(std::string("gpu.wg_cycles.") + reason),
                   lifetime, "share", "WG cycles / WG lifetime cycles");
    };

    std::vector<Metric> m = {
        {"sim.events", events, "count"},
        per("sim.ns_per_event", t.runS, events, "ns",
            "host s in run / events", 1e9),
        per("sim.mcycles_per_s", cycles, t.runS, "Mcycles/s",
            "cycles / host s in run", 1e-6),
        {"core.run_s", span("core.run"), "s"},
        {"gpu.instructions", sim("gpu.instructions"), "count"},
        per("gpu.issue_util", sim("cu.activeCycles"), sim("gpu.cu_cycles"),
            "share", "CU active cycles / (cycles x CUs)"),
        {"mem.requests", sim("mem.requests"), "count"},
        {"mem.l2_atomics", sim("l2.atomics"), "count"},
        per("mem.l2_wait_fail_ratio", sim("l2.waitFails"),
            sim("l2.waitingAtomics"), "share",
            "failed / attempted waiting atomics"),
        per("mem.l2_queue_cycles_per_access",
            ratio(sim("l2.queueTicks"), ticksPerCycle),
            sim("l2.hits") + sim("l2.misses"), "cycles",
            "L2 queue cycles / L2 accesses"),
        per("mem.l1_hit_rate", sim("l1.hits"),
            sim("l1.hits") + sim("l1.misses"), "share",
            "L1 hits / L1 reads"),
        {"gpu.dispatches", sim("dispatcher.dispatches"), "count"},
        {"gpu.swap_outs", sim("dispatcher.swapOuts"), "count"},
        {"gpu.swap_ins", sim("dispatcher.swapIns"), "count"},
        {"gpu.forced_preemptions", sim("gpu.forced_preemptions"), "count"},
        wgShare("gpu.wg_share.running", "running"),
        wgShare("gpu.wg_share.spin", "spin"),
        wgShare("gpu.wg_share.waiting", "waiting"),
        wgShare("gpu.wg_share.save_restore", "saveRestore"),
        wgShare("gpu.wg_share.dispatch_queue", "dispatchQueue"),
        wgShare("gpu.wg_share.memory", "memory"),
        {"cp.context_saves", sim("cp.contextSaves"), "count"},
        {"cp.context_restores", sim("cp.contextRestores"), "count"},
        {"cp.rescues_fired", sim("cp.rescuesFired"), "count"},
        {"cp.spilled_resumes", sim("cp.spilledResumes"), "count"},
        per("cp.dma_busy_share", sim("dma.busyTicks"), sim("sim.ticks"),
            "share", "DMA busy ticks / run ticks"),
        {"syncmon.registrations", sim("syncmon.registrations"), "count"},
        {"syncmon.spills", sim("syncmon.spills"), "count"},
        {"syncmon.log_full_retries", sim("syncmon.logFullRetries"),
         "count"},
        {"syncmon.resumes",
         sim("syncmon.resumesAll") + sim("syncmon.resumesOne"), "count"},
        // 0 when the predictor made no prediction.
        per("syncmon.predict_accuracy",
            predicted - sim("syncmon.mispredicted_resumes"), predicted,
            "share", "(predicted - mispredicted) / predicted resumes"),
        per("syncmon.wait_latency_mean_cycles",
            sim("syncmon.waitLatency.sum"),
            sim("syncmon.waitLatency.samples"), "cycles",
            "summed latency / samples"),
        {"syncmon.stall_timeouts", sim("syncmon.stallTimeouts"), "count"},
        {"workloads.validate_s", span("workloads.validate"), "s"},
        {"analysis.lint_s", span("analysis.lint"), "s"},
        {"analysis.interference_s", span("analysis.interference"), "s"},
        {"analysis.kernels", sim("analysis.kernels"), "count"},
        {"explore.schedules", schedules, "count"},
        {"explore.pruned", sim("explore.pruned"), "count"},
        {"explore.por_skipped", sim("explore.por_skipped"), "count"},
        per("explore.s_per_schedule",
            span("explore.walk") + span("explore.exhaustive"), schedules,
            "s", "walk + DFS s / schedules"),
        {"explore.self_s", self("explore"), "s"},
        {"explore.exhaustive_s", span("explore.exhaustive"), "s"},
        {"core.construct_s", span("core.construct"), "s"},
        {"workloads.build_s", span("workloads.build"), "s"},
        {"core.self_s", self("core"), "s"},
        {"workloads.self_s", self("workloads"), "s"},
        {"analysis.self_s", self("analysis"), "s"},
        {"bench.self_s", p.wallS - st.topLevel, "s"},
        {"trace.spans", static_cast<double>(st.count), "count"},
    };
    const std::pair<const char *, const char *> verdicts[] = {
        {"core.verdict.complete", "COMPLETE"},
        {"core.verdict.deadlock", "DEADLOCK"},
        {"core.verdict.livelock", "LIVELOCK"},
        {"core.verdict.lost_wakeup", "LOST_WAKEUP"},
        {"core.verdict.exhausted", "EXHAUSTED"},
    };
    for (const auto &[name, verdict] : verdicts) {
        auto it = t.verdicts.find(verdict);
        m.push_back({name,
                     it == t.verdicts.end()
                         ? 0.0
                         : static_cast<double>(it->second),
                     "count"});
    }
    return m;
}

/** Chrome-trace JSON of every recorded span (open in Perfetto). */
void
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << fmt(1e6 * s.startS) << ",\"dur\":"
           << fmt(1e6 * (s.endS - s.startS)) << ",\"args\":{\"job\":"
           << s.job << ",\"parent\":" << s.parent << ",\"self_us\":"
           << fmt(1e6 * s.selfS) << "}}";
    }
    os << "\n]}\n";
    if (!os)
        std::cerr << "warning: could not write spans to " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage(std::cerr);
        return 2;
    }
    const Workload *workload = nullptr;
    for (const Workload &w : workloads()) {
        if (opt.workload == w.name)
            workload = &w;
    }
    if (!workload) {
        std::cerr << "unknown workload '" << opt.workload << "'\n";
        usage(std::cerr);
        return 2;
    }

    Context ctx;
    ctx.seed = opt.seed;

    // The budget covers the set-up repetitions and the passes.
    const Clock::time_point measureStart = Clock::now();
    CpuRotation rotation;
    std::vector<double> setupS;
    for (int i = 0; i < kSetupReps; ++i) {
        rotation.next();
        const double ref = referenceLoop();
        const Clock::time_point start = Clock::now();
        workload->setup();
        setupS.push_back(atReference(secondsSince(start), ref));
    }

    // Whole passes until the next, if as slow as the slowest so far,
    // would overrun the budget. After each untraced full pass, repeat
    // passes over the cheap jobs may take up to a quarter of its time,
    // and after the last one whatever time is left.
    std::vector<PassResult> passes;
    std::map<std::size_t, std::vector<sim::Tick>> sliceTicksByJob;
    const std::size_t minPasses = opt.trace ? 2 : 1;
    double slowest = 0.0;
    auto runPass = [&](bool traced, const std::vector<bool> *only) {
        rotation.next();
        PassResult p;
        p.traced = traced;
        p.repeat = only != nullptr;
        ctx.tracer.enabled = traced;
        p.spanBegin = ctx.tracer.spans().size();
        const Clock::time_point start = Clock::now();
        workload->pass(ctx, p.tally, only);
        p.wallS = secondsSince(start);
        p.spanEnd = ctx.tracer.spans().size();
        sliceRuns(p.tally, sliceTicksByJob);
        passes.push_back(std::move(p));
        return passes.back().wallS;
    };
    // Repeat passes over the cheap jobs, for up to @p share of the
    // budget's seconds, while the longest one so far still fits.
    auto repeatCheap = [&](double share) {
        if (opt.trace || !workload->repeats)
            return;
        std::vector<const PassResult *> all;
        for (const PassResult &p : passes)
            all.push_back(&p);
        const std::vector<bool> keep = cheapJobs(jobFloors(all));
        double spent = 0.0;
        double longest = 0.0;
        while (!keep.empty() && spent < share &&
               secondsSince(measureStart) + longest < opt.seconds) {
            const double w = runPass(false, &keep);
            spent += w;
            longest = std::max(longest, w);
        }
    };
    std::size_t fullPasses = 0;
    while (true) {
        const double wall =
            runPass(opt.trace && fullPasses % 2 == 1, nullptr);
        ++fullPasses;
        slowest = std::max(slowest, wall);
        repeatCheap(0.25 * wall);
        if (fullPasses >= minPasses &&
            secondsSince(measureStart) + slowest > opt.seconds) {
            // No other full pass fits; the rest goes to repeats.
            repeatCheap(opt.seconds);
            break;
        }
    }
    ctx.tracer.enabled = false;

    // Outcomes, digest agreement and the pass-level figures. Repeat
    // passes only add timing samples; each job they re-ran must have
    // reproduced its full-pass output.
    const Tally &first = passes.front().tally;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::size_t repeats = 0;
    std::vector<const PassResult *> untraced;
    std::vector<const PassResult *> untracedFull;
    std::vector<const PassResult *> traced;
    for (const PassResult &p : passes) {
        correct = correct && p.tally.outputsCorrect;
        if (p.traced) {
            traced.push_back(&p);
        } else {
            untraced.push_back(&p);
            if (!p.repeat)
                untracedFull.push_back(&p);
        }
        if (p.repeat) {
            ++repeats;
            const Tally &t = p.tally;
            for (std::size_t i = 0; i < t.jobOutput.size(); ++i) {
                if (!std::isnan(t.jobMs[i]) &&
                    (i >= first.jobOutput.size() ||
                     t.jobOutput[i] != first.jobOutput[i])) {
                    correct = false;
                    std::cout << "error: a repeated job's output changed "
                                 "(nondeterminism)\n";
                }
            }
            continue;
        }
        if (p.tally.digest != first.digest) {
            correct = false;
            std::cout << "error: pass digests differ (nondeterminism)\n";
        }
        attempted += p.tally.attempted;
        failed += p.tally.failed;
    }

    const std::vector<double> jobFloorMs = jobFloors(untraced);
    const double untracedWall = floorWall(untracedFull, jobFloorMs);
    const std::size_t jobsPerPass = jobFloorMs.size();

    std::vector<Metric> endToEnd = {
        {"wall_s", untracedWall, "s"},
        {"job_ms_p50", valueWithBeyond(jobFloorMs, jobsPerPass / 2), "ms"},
        // The highest percentile with at least ten jobs beyond it.
        {"job_ms_tail", valueWithBeyond(jobFloorMs, 10), "ms"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"pass_share",
         ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "share"},
        {"awg_speedup_geomean", geomean(first.awgSpeedups), "x"},
        {"atomics_total", first.atomics, "count"},
    };

    // Human-readable report.
    std::cout << "workload " << workload->name << " (seed " << opt.seed
              << "): " << fullPasses << " passes (" << traced.size()
              << " traced) + " << repeats
              << " repeat passes of the cheap jobs; set-up x" << kSetupReps
              << "\n";
    std::vector<double> referenceRuns;
    for (const PassResult *p : untraced) {
        referenceRuns.insert(referenceRuns.end(), p->tally.referenceS.begin(),
                             p->tally.referenceS.end());
    }
    std::cout << "  reference loop      median "
              << fmt(1e6 * median(referenceRuns)) << " us over "
              << referenceRuns.size()
              << " untraced runs; the host times below are scaled to a "
              << fmt(1e6 * kReferenceS) << " us loop\n";
    std::cout << "  wall_s              " << fmt(untracedWall)
              << " s (each part's fastest of " << untraced.size()
              << " untraced passes; raw full-pass walls:";
    for (const PassResult &p : passes) {
        if (!p.repeat)
            std::cout << " " << fmt(p.wallS) << (p.traced ? "t" : "");
    }
    std::cout << ")\n";
    std::cout << "  job_ms_p50          " << fmt(endToEnd[1].value)
              << " ms over " << jobsPerPass << " jobs, each at its fastest\n";
    std::cout << "  job_ms_tail         " << fmt(endToEnd[2].value)
              << " ms = p"
              << fmt(100.0 * (1.0 - 10.0 / static_cast<double>(
                                           std::max<std::size_t>(
                                               jobsPerPass, 10))))
              << " of " << jobsPerPass << " jobs (10 beyond)\n";
    std::cout << "  setup_s             " << fmt(endToEnd[3].value)
              << " s (median of " << kSetupReps << ")\n";
    std::cout << "  peak_rss_mb         " << fmt(endToEnd[4].value)
              << " MB\n";
    std::cout << "  fail_share          " << failed << "/" << attempted
              << " (pass_share " << fmt(endToEnd[5].value) << ")\n";
    std::cout << "  awg_speedup_geomean " << fmt(endToEnd[6].value)
              << " x over " << first.awgSpeedups.size()
              << " cells where Timeout and AWG complete\n";
    std::cout << "  atomics_total       " << fmt(first.atomics)
              << " atomic instructions\n";
    if (auto it = first.sim.find("oracle.stalls_expected");
        it != first.sim.end()) {
        std::cout << "  expected stalls     "
                  << fmt(first.sim.at("oracle.stalls_met")) << "/"
                  << fmt(it->second) << " Baseline/Sleep cells stalled\n";
    }
    std::cout << "  verdicts per pass  ";
    for (const auto &[v, n] : first.verdicts)
        std::cout << " " << v << "=" << n;
    std::cout << "\n";
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(first.digest));
    std::cout << "  simulated digest    " << digest
              << " (every job's verdict, cycles and stats; informational)\n";
    for (const std::string &f : first.failures)
        std::cout << "  FAILED " << f << "\n";

    std::vector<Metric> layer;
    if (opt.trace) {
        // Per-layer figures of one traced pass, the one with the median
        // wall time, so every ratio and its base come from one pass.
        std::vector<const PassResult *> byWall = traced;
        std::sort(byWall.begin(), byWall.end(),
                  [](const PassResult *a, const PassResult *b) {
                      return a->wallS < b->wallS;
                  });
        const PassResult &mid = *byWall[(byWall.size() - 1) / 2];
        layer = perLayer(
            mid, totalSpans(ctx.tracer.spans(), mid.spanBegin, mid.spanEnd));
        layer.push_back({"trace.overhead_s",
                         floorWall(traced, jobFloors(traced)) - untracedWall,
                         "s", "traced minus untraced wall_s"});
        std::cout << "  per-layer, from the median of " << traced.size()
                  << " traced passes (" << fmt(mid.wallS) << " s):\n";
        for (const Metric &m : layer) {
            std::cout << "    " << m.name << " " << fmt(m.value) << " "
                      << m.unit;
            if (!m.base.empty())
                std::cout << "  (" << m.base << ")";
            std::cout << "\n";
        }
        if (!opt.spansOut.empty())
            writeSpans(opt.spansOut, ctx.tracer.spans());
    }

    const std::vector<Metric> &out = opt.trace ? layer : endToEnd;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << out[i].name
                  << "\": {\"value\": " << fmt(out[i].value)
                  << ", \"unit\": \"" << out[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
