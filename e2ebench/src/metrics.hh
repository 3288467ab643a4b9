/**
 * @file
 * Named metrics and the result line the benchmark prints last.
 */

#ifndef E2EBENCH_METRICS_HH_
#define E2EBENCH_METRICS_HH_

#include <string>
#include <vector>

#include "sim/runner.hh"

namespace e2e
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Whether @p unit is a valid unit: 1-16 of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

/** Shortest decimal text that reads back as exactly @p v. */
std::string formatNumber(double v);

/**
 * The final stdout line: {"correct", "attempted", "failed", "metrics"}.
 * Throws std::invalid_argument on a bad or repeated name, a bad unit or
 * a non-finite value.
 */
std::string resultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric> &metrics);

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/**
 * Simulated-statistics metrics over a set of exact results: total
 * cycles, geometric-mean IPC, the cycle split (busy / FU stall / L1-hit
 * memory / L1-miss memory), L1 and L2 miss rates and the cycle-weighted
 * mean L1 MSHR occupancy.  They repeat exactly for a given job list.
 */
std::vector<Metric>
simulatedMetrics(const std::vector<const msim::sim::RunResult *> &results);

/** What an untraced run measures (see BENCHMARK.json "end_to_end"). */
struct EndToEnd
{
    double wallS = 0.0;       ///< median host time of one timed round
    double points = 0.0;      ///< design points per round
    double simInsts = 0.0;    ///< simulated instructions per round
    double setupS = 0.0;      ///< median warm-up runJobs time
    double peakRssMb = 0.0;   ///< peak resident set after round one
    double cpiErrMaxPct = 0.0; ///< worst |sampled - exact| CPI, in %
};
std::vector<Metric> endToEndMetrics(const EndToEnd &e);

/** What the traced run measures (see BENCHMARK.json "per_layer"). */
struct PerLayer
{
    double recordS = 0.0, recordTraces = 0.0, recordInsts = 0.0;
    double oooS = 0.0, oooInsts = 0.0, oooCycles = 0.0;
    double inorderS = 0.0, inorderInsts = 0.0, inorderCycles = 0.0;
    double planS = 0.0, planInsts = 0.0;
    double sampledS = 0.0, sampledPoints = 0.0;
    double measuredInsts = 0.0, sampledInsts = 0.0;
    double tracedS = 0.0; ///< the single-thread traced pass, end to end
    double wallS = 0.0;   ///< the untraced round's median wall time
    unsigned threads = 1;
};
std::vector<Metric> perLayerMetrics(const PerLayer &p,
                                    const std::vector<Metric> &simulated);

} // namespace e2e

#endif // E2EBENCH_METRICS_HH_
