/**
 * @file
 * The benchmark's three workloads, their jobs and the outcome oracle.
 *
 * Every job is driven through the public API of each layer directly
 * (workloads, core, analysis, explore), not through harness::
 * runExperiment, which aborts the process on a validation failure
 * instead of letting the benchmark count it.
 *
 *  - fig15-oversub: the paper's headline oversubscribed matrix. Host
 *    time is dominated by Baseline cells busy-spinning until the
 *    deadlock window closes (gpu issue, L2 atomics, event queue).
 *  - grid-oversub: every registry workload at twice the resident
 *    slots, without faults, under the two headline swap-capable
 *    policies. Host time goes to swapping (dispatcher, CP context
 *    save/restore, SyncMon). Its thrashing cells are a known defect
 *    and are counted as failures, not avoided.
 *  - explore-verify: static analysis of the registry plus exhaustive
 *    and random schedule exploration of the litmus suite, where the
 *    analysis and explore layers do most of the work.
 */

#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analysis/interference.hh"
#include "analysis/lint.hh"
#include "bench.hh"
#include "core/fault_plan.hh"
#include "core/policy.hh"
#include "explore/explore.hh"
#include "harness/runner.hh"
#include "workloads/litmus.hh"
#include "workloads/registry.hh"

namespace ifp::perfbench {

namespace {

using core::Policy;
using core::Verdict;

/** What the oracle accepts as a job's outcome. */
enum class Expect
{
    Complete,  //!< COMPLETE with a validated memory image
    Stall,     //!< DEADLOCK or LIVELOCK (no swap-in after CU loss)
};

/** One simulated run of a registry workload. */
struct SimJob
{
    std::string label;
    std::string workload;
    Policy policy = Policy::Awg;
    workloads::WorkloadParams params;
    core::RunConfig cfg;
    Expect expect = Expect::Complete;
};

/** A job's machine and kernel geometry, as harness::runExperiment
 * derives them, on the serial core. */
SimJob
makeSimJob(const std::string &scenario, const std::string &workload,
           Policy policy, const workloads::WorkloadParams &params)
{
    SimJob job;
    job.label = scenario + "/" + workload + "/" + core::policyName(policy);
    job.workload = workload;
    job.policy = policy;
    job.params = params;
    job.params.style = core::styleFor(policy);
    job.cfg.policy.policy = policy;
    job.params.backoffMaxCycles = static_cast<std::int64_t>(
        job.cfg.policy.sleepMaxBackoffCycles);
    job.cfg.shards = 1;
    return job;
}

/**
 * Figure 15: the 12 HeteroSync workloads under six policies at the
 * evaluation geometry with iters 16, CU 7 lost 10 us after launch.
 * The paper's claims are the oracle: Baseline and Sleep cannot swap
 * the stranded WGs back in and stall; the others complete.
 */
std::vector<SimJob>
fig15Jobs()
{
    const Policy policies[] = {Policy::Timeout,  Policy::Baseline,
                               Policy::Sleep,    Policy::MonNRAll,
                               Policy::MonNROne, Policy::Awg};
    workloads::WorkloadParams params = harness::defaultEvalParams();
    params.iters = 16;

    std::vector<SimJob> jobs;
    for (const std::string &w : workloads::heteroSyncAbbrevs()) {
        for (Policy policy : policies) {
            SimJob job = makeSimJob("fig15", w, policy, params);
            job.cfg.faultPlan = core::FaultPlan::cuLoss(10, 0, -1);
            job.expect = core::deadlockProne(policy) ? Expect::Stall
                                                     : Expect::Complete;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/**
 * Every registry workload at 128 WGs, twice the 64 resident slots of
 * the evaluation machine, under Timeout and AWG with no faults.
 * Swap-capable policies must complete at any grid size (the paper's
 * title claim; the static progress pass rates their waiting styles
 * clean at this size).
 */
std::vector<SimJob>
gridJobs()
{
    workloads::WorkloadParams params = harness::defaultEvalParams();
    params.numWgs = 128;

    std::vector<SimJob> jobs;
    for (const workloads::WorkloadPtr &w : workloads::makeFullSuite()) {
        for (Policy policy : {Policy::Timeout, Policy::Awg})
            jobs.push_back(makeSimJob("grid", w->abbrev(), policy, params));
    }
    return jobs;
}

const std::vector<SimJob> &
cachedJobs(bool fig15)
{
    static const std::vector<SimJob> fig = fig15Jobs();
    static const std::vector<SimJob> grid = gridJobs();
    return fig15 ? fig : grid;
}

/** "expected X, got Y" when @p got is not acceptable, else "". */
std::string
checkVerdict(Expect expect, const core::RunResult &r)
{
    const bool ok =
        expect == Expect::Complete
            ? r.verdict == Verdict::Complete
            : r.verdict == Verdict::Deadlock ||
                  r.verdict == Verdict::Livelock;
    if (ok)
        return "";
    return std::string("expected ") +
           (expect == Expect::Complete ? "COMPLETE" : "a stall") +
           ", got " + core::verdictName(r.verdict);
}

/** Run one SimJob through construct / build / run. */
void
runSimJob(Context &ctx, Tally &tally, const SimJob &job,
          std::map<std::string, std::pair<double, double>> &awgCycles)
{
    Tracer &tr = ctx.tracer;
    const std::uint64_t id = ctx.nextJob++;
    const std::size_t slot = tally.jobMs.size();
    std::string why;
    try {
        const Clock::time_point start = Clock::now();
        workloads::WorkloadPtr workload;
        {
            Span s(tr, "workloads.make", id);
            workload = workloads::makeWorkload(job.workload);
        }
        std::unique_ptr<core::GpuSystem> system;
        {
            Span s(tr, "core.construct", id);
            system = std::make_unique<core::GpuSystem>(job.cfg);
        }
        std::optional<isa::Kernel> kernel;
        {
            Span s(tr, "workloads.build", id);
            kernel.emplace(workload->build(*system, job.params));
        }
        core::RunResult result;
        const Clock::time_point runStart = Clock::now();
        std::vector<TickSample> samples;
        {
            Span s(tr, "core.run", id);
            RunSampler::start(system->eventq(), start);
            result = system->run(
                *kernel,
                [&](const mem::BackingStore &store, std::string &err) {
                    Span v(tr, "workloads.validate", id);
                    return workload->validate(store, job.params, err);
                });
            samples = RunSampler::stop();
        }
        tally.jobMs.push_back(1e3 * secondsSince(start));
        if (!samples.empty())
            tally.jobSamples[slot] = std::move(samples);
        tally.jobOutput.push_back(
            (static_cast<std::uint64_t>(result.verdict) << 56) ^
            (result.gpuCycles * 0x9e3779b97f4a7c15ULL) ^
            result.atomicInstructions);
        tally.harvest(job.label, *system, result, secondsSince(runStart));

        if (result.completed && !result.validated) {
            why = "validation failed: " + result.validationError;
            tally.outputsCorrect = false;
        } else {
            why = checkVerdict(job.expect, result);
        }
        if (job.expect == Expect::Stall) {
            tally.sim["oracle.stalls_expected"] += 1;
            tally.sim["oracle.stalls_met"] += why.empty() ? 1 : 0;
        }
        if (result.verdict == Verdict::Complete &&
            (job.policy == Policy::Timeout || job.policy == Policy::Awg)) {
            auto &cell = awgCycles[job.workload];
            (job.policy == Policy::Timeout ? cell.first : cell.second) =
                static_cast<double>(result.gpuCycles);
        }
    } catch (const std::exception &e) {
        RunSampler::stop();
        why = std::string("threw: ") + e.what();
        tally.outputsCorrect = false;
        tally.jobSamples.erase(slot);
        tally.jobMs.resize(slot);
        tally.jobOutput.resize(slot);
        tally.jobMs.push_back(std::nan(""));
        tally.jobOutput.push_back(0);
    }
    tally.record(job.label, why);
}

void
simSetup(bool fig15)
{
    for (const SimJob &job : cachedJobs(fig15)) {
        workloads::WorkloadPtr workload =
            workloads::makeWorkload(job.workload);
        core::GpuSystem system(job.cfg);
        workload->build(system, job.params);
    }
}

void
simPass(Context &ctx, Tally &tally, bool fig15,
        const std::vector<bool> *only)
{
    std::map<std::string, std::pair<double, double>> awgCycles;
    const std::vector<SimJob> &jobs = cachedJobs(fig15);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (only && !(*only)[j]) {
            tally.jobMs.push_back(std::nan(""));
            tally.jobOutput.push_back(0);
            continue;
        }
        tally.runReference();
        runSimJob(ctx, tally, jobs[j], awgCycles);
    }
    for (const auto &[workload, cycles] : awgCycles) {
        if (cycles.first > 0 && cycles.second > 0)
            tally.awgSpeedups.push_back(cycles.first / cycles.second);
    }
}

// ---------------------------------------------------------------- explore

constexpr std::pair<core::SyncStyle, const char *> kStyles[] = {
    {core::SyncStyle::Busy, "Busy"},
    {core::SyncStyle::SleepBackoff, "SleepBackoff"},
    {core::SyncStyle::WaitInstr, "WaitInstr"},
    {core::SyncStyle::WaitAtomic, "WaitAtomic"}};

/** Schedules per random-walk cell, after the stock schedule. */
constexpr unsigned kWalkSchedules = 200;

/**
 * ring-6 is left out of the walk, and its AWG cell out of the
 * exhaustive DFS: each AWG schedule of it runs the full 30M-cycle
 * budget of swap churn, which grid-oversub already measures.
 */
const char *const kBigLitmus = "ring-6";

/** The kernel geometry explore uses for a litmus (LitmusSpec fields
 * only); the replay below checks it against the explored run. */
workloads::WorkloadParams
litmusParams(const workloads::LitmusSpec &spec, Policy policy)
{
    workloads::WorkloadParams params;
    params.numWgs = spec.numWgs;
    params.wgsPerGroup = spec.maxWgsPerCu;
    params.wiPerWg = 1;
    params.iters = 1;
    params.style = core::styleFor(policy);
    return params;
}

/** Lint and interference analysis of one registry kernel. */
void
lintJob(Context &ctx, Tally &tally, const std::string &abbrev,
        core::SyncStyle style, const char *style_name)
{
    Tracer &tr = ctx.tracer;
    const std::uint64_t id = ctx.nextJob++;
    const std::string label = "lint/" + abbrev + "/" + style_name;
    std::string why;
    try {
        const Clock::time_point start = Clock::now();
        workloads::WorkloadPtr workload;
        {
            Span s(tr, "workloads.make", id);
            workload = workloads::makeWorkload(abbrev);
        }
        const core::RunConfig cfg;
        std::unique_ptr<core::GpuSystem> machine;
        {
            Span s(tr, "core.construct", id);
            machine = std::make_unique<core::GpuSystem>(cfg);
        }
        workloads::WorkloadParams params;
        params.style = style;
        std::optional<isa::Kernel> kernel;
        {
            Span s(tr, "workloads.build", id);
            kernel.emplace(workload->build(*machine, params));
        }
        const gpu::GpuConfig &m = cfg.gpu;
        const analysis::LaunchContext launch = analysis::makeLaunchContext(
            *kernel, m.numCus, m.simdsPerCu, m.wavefrontsPerSimd,
            m.ldsBytesPerCu);
        std::optional<analysis::Report> report;
        {
            Span s(tr, "analysis.lint", id);
            report.emplace(analysis::runLint(*kernel, launch));
        }
        std::optional<analysis::InterferenceSummary> summary;
        {
            Span s(tr, "analysis.interference", id);
            summary.emplace(analysis::summarizeInterference(*kernel, launch));
        }
        tally.jobMs.push_back(1e3 * secondsSince(start));

        // The registry's annotation (the ifplint --Werror gates): no
        // unsuppressed warning or error, no static circular wait.
        if (!report->clean(true))
            why = "unexpected lint finding";
        else if (!summary->circular.empty())
            why = "unexpected static circular wait";
        tally.sim["analysis.kernels"] += 1;
        tally.mixDigest(label);
        for (const analysis::Diagnostic &d : report->diagnostics)
            tally.mixDigest(d.code);
        tally.mixDigest(summary->conflictPairs);
        tally.mixDigest(summary->syncAliasPairs);
        tally.mixDigest(summary->waitForEdges);
        tally.mixDigest(summary->circular.size());
    } catch (const std::exception &e) {
        why = std::string("threw: ") + e.what();
        tally.outputsCorrect = false;
    }
    tally.record(label, why);
}

/** Bounded exhaustive DFS with POR over one annotated litmus cell. */
void
exhaustiveJob(Context &ctx, Tally &tally,
              const workloads::LitmusWorkload &litmus, Policy policy,
              Verdict expected)
{
    const std::string label = "dfs/" + litmus.spec().name + "/" +
                              core::policyName(policy);
    const std::uint64_t id = ctx.nextJob++;
    explore::ExhaustiveConfig cfg;
    cfg.por = true;
    explore::ExhaustiveResult r;
    try {
        const Clock::time_point start = Clock::now();
        Span s(ctx.tracer, "explore.exhaustive", id);
        r = explore::exhaustive(litmus, policy, cfg);
        tally.cellS.push_back(secondsSince(start));
    } catch (const std::exception &e) {
        tally.outputsCorrect = false;
        tally.record(label, std::string("threw: ") + e.what());
        return;
    }

    // Each explored schedule is a job whose verdict must match the
    // annotation; the DFS reports them only as a histogram.
    const std::uint64_t good = r.counts[static_cast<std::size_t>(expected)];
    for (std::size_t v = 0; v < r.counts.size(); ++v) {
        if (r.counts[v] != 0) {
            tally.verdicts[core::verdictName(static_cast<Verdict>(v))] +=
                r.counts[v];
        }
        tally.mixDigest(r.counts[v]);
    }
    tally.attempted += r.schedulesRun;
    tally.failed += r.schedulesRun - good;
    if (good != r.schedulesRun) {
        tally.failures.push_back(
            label + ": " + std::to_string(r.schedulesRun - good) + " of " +
            std::to_string(r.schedulesRun) + " schedules not " +
            core::verdictName(expected));
    }
    tally.sim["explore.schedules"] += static_cast<double>(r.schedulesRun);
    tally.sim["explore.pruned"] += static_cast<double>(r.pruned);
    tally.sim["explore.por_skipped"] += static_cast<double>(r.porSkipped);
    tally.mixDigest(label);
    tally.mixDigest(r.schedulesRun);
    tally.mixDigest(r.pruned);
    tally.mixDigest(r.porSkipped);
    tally.mixDigest(r.frontierExhausted ? 1 : 0);
}

/**
 * One seeded random walk over an annotated litmus cell: the stock
 * schedule plus kWalkSchedules random ones, seeded exactly as
 * explore::randomWalk seeds them. The walk is driven schedule by
 * schedule so the on_system hook can split each schedule's host time
 * into machine construction and build-plus-run. The stock schedule is
 * replayed on a plain GpuSystem to read its stat groups (explore
 * returns verdict and cycles only); the replay must agree.
 *
 * @return the stock schedule's cycles when it completed, else 0.
 */
double
walkCell(Context &ctx, Tally &tally,
         const workloads::LitmusWorkload &litmus, Policy policy,
         Verdict expected)
{
    Tracer &tr = ctx.tracer;
    const workloads::LitmusSpec &spec = litmus.spec();
    const std::string cell =
        "walk/" + spec.name + "/" + core::policyName(policy);
    Span walk(tr, "explore.walk", ctx.nextJob);

    std::optional<core::RunConfig> stockCfg;
    explore::ScheduleResult stock;
    for (unsigned i = 0; i <= kWalkSchedules; ++i) {
        const std::uint64_t id = ctx.nextJob++;
        const std::string label = cell + "/" + std::to_string(i);
        std::optional<explore::RandomOracle> oracle;
        if (i > 0) {
            oracle.emplace(explore::scheduleSeed(spec.name, policy,
                                                 ctx.seed, i - 1));
        }
        std::string why;
        try {
            const Clock::time_point start = Clock::now();
            explore::ScheduleResult r;
            {
                Span s(tr, "explore.schedule", id);
                int phase = tr.open("core.construct", id);
                r = explore::runLitmusSchedule(
                    litmus, policy, oracle ? &*oracle : nullptr, {},
                    [&](core::GpuSystem &system) {
                        tr.close(phase);
                        phase = tr.open("core.run", id);
                        if (i == 0)
                            stockCfg = system.config();
                    });
                tr.close(phase);
            }
            tally.jobMs.push_back(1e3 * secondsSince(start));
            r.choicePoints = oracle ? oracle->decisions : 0;
            if (i == 0)
                stock = r;

            tally.verdicts[core::verdictName(r.verdict)] += 1;
            tally.sim["explore.schedules"] += 1;
            tally.mixDigest(static_cast<std::uint64_t>(r.verdict));
            tally.mixDigest(r.gpuCycles);
            tally.mixDigest(r.choicePoints);
            if (r.verdict == Verdict::Complete && !r.validated) {
                why = "validation failed";
                tally.outputsCorrect = false;
            } else if (r.verdict != expected) {
                why = std::string("expected ") +
                      core::verdictName(expected) + ", got " +
                      core::verdictName(r.verdict);
            }
        } catch (const std::exception &e) {
            why = std::string("threw: ") + e.what();
            tally.outputsCorrect = false;
        }
        tally.record(label, why);
    }

    // Replay of the stock schedule for its simulated counters.
    const std::uint64_t id = ctx.nextJob++;
    const std::string label = cell + "/replay";
    std::string why;
    try {
        if (!stockCfg)
            throw std::runtime_error("stock schedule built no machine");
        stockCfg->schedOracle = nullptr;
        const workloads::WorkloadParams params =
            litmusParams(spec, policy);
        const Clock::time_point start = Clock::now();
        std::unique_ptr<core::GpuSystem> system;
        {
            Span s(tr, "core.construct", id);
            system = std::make_unique<core::GpuSystem>(*stockCfg);
        }
        std::optional<isa::Kernel> kernel;
        {
            Span s(tr, "workloads.build", id);
            kernel.emplace(litmus.build(*system, params));
        }
        core::RunResult result;
        const Clock::time_point runStart = Clock::now();
        {
            Span s(tr, "core.run", id);
            result = system->run(
                *kernel,
                [&](const mem::BackingStore &store, std::string &err) {
                    Span v(tr, "workloads.validate", id);
                    return litmus.validate(store, params, err);
                });
        }
        tally.jobMs.push_back(1e3 * secondsSince(start));
        tally.harvest(label, *system, result, secondsSince(runStart));
        if (result.verdict != stock.verdict ||
            result.gpuCycles != stock.gpuCycles) {
            why = "replay diverged from the stock schedule";
            tally.outputsCorrect = false;
        }
    } catch (const std::exception &e) {
        why = std::string("threw: ") + e.what();
        tally.outputsCorrect = false;
    }
    tally.record(label, why);
    return stock.verdict == Verdict::Complete
               ? static_cast<double>(stock.gpuCycles)
               : 0.0;
}

void
exploreSetup()
{
    for (const workloads::WorkloadPtr &w : workloads::makeFullSuite()) {
        for (const auto &style : kStyles) {
            core::GpuSystem machine{core::RunConfig{}};
            workloads::WorkloadParams params;
            params.style = style.first;
            w->build(machine, params);
        }
    }
    for (const workloads::LitmusSpec &spec : workloads::litmusSpecs()) {
        auto litmus = workloads::makeLitmus(spec.name);
        for (const auto &cell : spec.expected) {
            core::RunConfig cfg;
            cfg.gpu.numCus = spec.numCus;
            cfg.policy.policy = cell.first;
            cfg.shards = 1;
            core::GpuSystem machine(cfg);
            litmus->build(machine, litmusParams(spec, cell.first));
        }
    }
}

void
explorePass(Context &ctx, Tally &tally, const std::vector<bool> *)
{
    for (const workloads::WorkloadPtr &w : workloads::makeFullSuite()) {
        for (const auto &[style, name] : kStyles) {
            tally.runReference();
            lintJob(ctx, tally, w->abbrev(), style, name);
        }
    }

    for (const workloads::LitmusSpec &spec : workloads::litmusSpecs()) {
        auto litmus = workloads::makeLitmus(spec.name);
        for (const auto &[policy, expected] : spec.expected) {
            if (spec.name == kBigLitmus && policy == Policy::Awg)
                continue;
            tally.runReference();
            exhaustiveJob(ctx, tally, *litmus, policy, expected);
        }
    }

    for (const workloads::LitmusSpec &spec : workloads::litmusSpecs()) {
        if (spec.name == kBigLitmus)
            continue;
        auto litmus = workloads::makeLitmus(spec.name);
        double timeoutCycles = 0.0;
        double awgCycles = 0.0;
        for (const auto &[policy, expected] : spec.expected) {
            tally.runReference();
            const double cycles =
                walkCell(ctx, tally, *litmus, policy, expected);
            if (policy == Policy::Timeout)
                timeoutCycles = cycles;
            else if (policy == Policy::Awg)
                awgCycles = cycles;
        }
        if (timeoutCycles > 0 && awgCycles > 0)
            tally.awgSpeedups.push_back(timeoutCycles / awgCycles);
    }
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"fig15-oversub", [] { simSetup(true); },
         [](Context &ctx, Tally &t, const std::vector<bool> *only) {
             simPass(ctx, t, true, only);
         },
         true},
        {"grid-oversub", [] { simSetup(false); },
         [](Context &ctx, Tally &t, const std::vector<bool> *only) {
             simPass(ctx, t, false, only);
         },
         true},
        {"explore-verify", exploreSetup, explorePass, false},
    };
    return all;
}

} // namespace ifp::perfbench
