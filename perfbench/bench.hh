/**
 * @file
 * Shared pieces of the benchmark program: the span recorder used by the
 * traced mode, and the per-pass tally every workload fills in.
 *
 * A pass runs every job of one workload once, serially, on the calling
 * thread. A job is one simulated run, one explored schedule or one
 * linted kernel.
 */

#ifndef IFP_PERFBENCH_BENCH_HH
#define IFP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/gpu_system.hh"
#include "core/run_result.hh"

namespace ifp::perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One recorded span: a call into a layer, timed on the host clock. */
struct SpanRecord
{
    std::string name;        //!< "<layer>.<call>", e.g. "core.run"
    double startS = 0.0;     //!< since the recorder's epoch
    double endS = 0.0;
    int parent = -1;         //!< index of the enclosing span, -1 = none
    std::uint64_t job = 0;   //!< job id shared by a job's spans
    /** Duration minus the time covered by direct children. */
    double selfS = 0.0;
};

/**
 * In-memory span recorder. Disabled recorders cost one branch per
 * span; spans are kept until the process writes them out at exit.
 */
class Tracer
{
  public:
    Tracer() : epoch(Clock::now()) {}

    bool enabled = false;

    /** Open a span; returns its index (-1 when disabled). */
    int open(const char *name, std::uint64_t job);
    /** Close the span @p index opened (no-op for -1). */
    void close(int index);

    const std::vector<SpanRecord> &spans() const { return records; }

  private:
    Clock::time_point epoch;
    std::vector<SpanRecord> records;
    std::vector<int> stack;
};

/** RAII span guard. */
class Span
{
  public:
    Span(Tracer &t, const char *name, std::uint64_t job)
        : tracer(t), index(t.open(name, job))
    {}
    ~Span() { tracer.close(index); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer;
    int index;
};

/** A host-clock reading taken while a simulated run was in progress. */
struct TickSample
{
    double s = 0.0;     //!< host seconds since the job started
    sim::Tick tick = 0; //!< the run's simulated tick at that moment
};

/**
 * Samples the simulated tick of one GpuSystem::run every kSamplePeriodUs
 * of host time, from a SIGALRM handler, without touching the simulator.
 * A run is deterministic, so a given tick marks the same point of its
 * work in every pass; the samples let a long run's host time be split
 * at fixed ticks into short slices that compare across passes.
 */
class RunSampler
{
  public:
    static constexpr long kSamplePeriodUs = 500;

    /**
     * Start sampling @p eq, taking the first sample now. Times are
     * measured from @p job_start.
     */
    static void start(const sim::EventQueue &eq, Clock::time_point job_start);
    /** Stop sampling; the samples so far plus one taken now. */
    static std::vector<TickSample> stop();
};

/**
 * Run the fixed reference loop once; returns its host seconds. Every
 * timed part of a pass is preceded by one run of it, and host times are
 * reported relative to it (see main.cc), so that the shared host's
 * speed, which swings by half within minutes, divides out.
 */
double referenceLoop();

/** Everything one pass over a workload produces. */
struct Tally
{
    /**
     * Host milliseconds of every individually timed job, in job order
     * (NaN for a job a repeat pass skipped).
     */
    std::vector<double> jobMs;
    /** RunSampler samples of the simulated runs, by index in jobMs;
     * replaced by jobSlices once the pass ends. */
    std::map<std::size_t, std::vector<TickSample>> jobSamples;
    /** Host seconds of each slice of each sampled run, by index in
     * jobMs. */
    std::map<std::size_t, std::vector<double>> jobSlices;
    /**
     * Per timed simulated job: a hash of its verdict, cycles and
     * atomics, so a repeat pass can check it reproduced the job.
     */
    std::vector<std::uint64_t> jobOutput;
    /**
     * Host seconds of each timed unit that is not a single job (an
     * exhaustive DFS cell), so a pass's wall time splits into parts.
     */
    std::vector<double> cellS;
    /** Host seconds of each reference loop run in the pass. */
    std::vector<double> referenceS;
    /** Per reference run, the sizes of jobMs and cellS when it ran: it
     * stands for the jobs and cells timed after it, up to the next. */
    std::vector<std::size_t> referenceJob;
    std::vector<std::size_t> referenceCell;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Names (and reasons) of failed jobs, in job order. */
    std::vector<std::string> failures;
    /**
     * False when an output is wrong rather than missing: a completed
     * run failed validation, a job threw, or a replay diverged.
     */
    bool outputsCorrect = true;

    /** Deterministic simulated counters, summed over the pass. */
    std::map<std::string, double> sim;
    /** Jobs per observed verdict name. */
    std::map<std::string, std::uint64_t> verdicts;
    /** Timeout-over-AWG cycle ratios of cells where both complete. */
    std::vector<double> awgSpeedups;
    /** Fig 9 quantity: atomic instructions over the measured runs. */
    double atomics = 0.0;
    /** Host seconds spent inside GpuSystem::run by harvested runs. */
    double runS = 0.0;
    /** FNV-1a over every job's deterministic simulated output. */
    std::uint64_t digest = 0xcbf29ce484222325ULL;

    void mixDigest(const std::string &text);
    void mixDigest(std::uint64_t value);

    /** Run the reference loop before the next timed job or cell. */
    void runReference();

    /** Count one job; @p why empty means it met its expectation. */
    void record(const std::string &job, const std::string &why);

    /**
     * Fold one finished simulated run into the counters and digest:
     * the RunResult plus every StatGroup of @p system. @p run_s is
     * the host time the run took.
     */
    void harvest(const std::string &job, const core::GpuSystem &system,
                 const core::RunResult &result, double run_s);
};

/** Shared state of one benchmark process. */
struct Context
{
    std::uint64_t seed = 0;
    Tracer tracer;
    std::uint64_t nextJob = 1;
};

/** One workload of the benchmark. */
struct Workload
{
    const char *name;
    /**
     * Build every job's inputs once without running them: instantiate
     * the workloads, construct each distinct machine and emit its
     * kernel. Repeated to measure set-up time.
     */
    void (*setup)();
    /**
     * Run every job once, filling @p tally. With @p only, run just the
     * flagged jobs: a repeat pass that adds timing samples to cheap
     * jobs. Null when the workload takes no repeat passes.
     */
    void (*pass)(Context &ctx, Tally &tally, const std::vector<bool> *only);
    /** Whether pass() honours @p only. */
    bool repeats;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

} // namespace ifp::perfbench

#endif // IFP_PERFBENCH_BENCH_HH
