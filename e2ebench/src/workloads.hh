/**
 * @file
 * Seeded job lists for the end-to-end benchmark.
 *
 * A workload is a sequence of calls into the public experiment API
 * (core::runJobs or core::runJobsSampled), each with the job list a
 * user would pass.  The seed is the only input: the same seed always
 * yields the same lists, and the simulator receives nothing but the
 * generated jobs.
 *
 *  - design-sweep:  the 12 Table-1 benchmarks' VIS traces crossed with
 *                   4 seeded machine points (one per cache-size
 *                   stratum), as one exact runJobs call.  Runnable by
 *                   name but not in BENCHMARK.json: on the reference
 *                   host its run-to-run spread exceeded the bound.
 *  - sampled-sweep: the same traces crossed with 20 seeded points, as
 *                   one runJobsSampled call.
 *  - paper-eval:    the job list of every paper driver (fig1, fig2,
 *                   fig3, branch, vis-overhead, mshr, L2 sweep, ISA and
 *                   skew ablations) restricted to a fixed benchmark
 *                   subset, one runJobs call per driver; the seed
 *                   shuffles the order of each driver's jobs.
 *
 * Both sweeps also carry a held-out accuracy panel (one fixed point per
 * trace) that is replayed exactly and sampled after the timed phase.
 * The set-up warm-up runs six non-paper kernels, so it shares no trace
 * with any workload.
 */

#ifndef E2EBENCH_WORKLOADS_HH_
#define E2EBENCH_WORKLOADS_HH_

#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"

namespace e2e
{

using msim::u64;

/** Which public entry point a call goes through. */
enum class CallKind
{
    Exact,  ///< core::runJobs
    Sampled ///< core::runJobsSampled
};

/** One call into the experiment API. */
struct Call
{
    std::string name; ///< span-safe label ("design-sweep", "fig1", ...)
    CallKind kind = CallKind::Exact;
    std::vector<msim::core::Job> jobs;
};

/** A workload: its calls, in order, plus an optional held-out set. */
struct Workload
{
    std::string name;
    std::vector<Call> calls;

    /**
     * Points that are not part of the timed calls: replayed both
     * sampled and exactly after the timed phase (the sweeps only).
     */
    std::vector<msim::core::Job> heldOut;

    size_t points() const;
};

/** Every workload name (BENCHMARK.json gates the last two). */
const std::vector<std::string> &workloadNames();

/** Build a workload; throws std::invalid_argument for an unknown name. */
Workload makeWorkload(const std::string &name, u64 seed);

/** The set-up warm-up: six non-paper kernels x {scalar, VIS}. */
std::vector<msim::core::Job> warmupJobs();

/** Everything a job's dynamic instruction stream depends on. */
using TraceKey = std::tuple<std::string, int, bool, bool, bool, bool>;
TraceKey traceKey(const msim::core::Job &job);

/** A canonical one-line description of a job (tests, deduplication). */
std::string describeJob(const msim::core::Job &job);

/** @p k distinct indices out of [0, n), in increasing order. */
std::vector<size_t> pickSubset(size_t n, size_t k, u64 seed);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH_
