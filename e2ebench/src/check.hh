/**
 * @file
 * Output checks: every exact point the benchmark times must match an
 * independent path, and every repeat of a point must match its first
 * run.  Failures are counted per point against the points attempted.
 */

#ifndef E2EBENCH_CHECK_HH_
#define E2EBENCH_CHECK_HH_

#include <set>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace e2e
{

/**
 * The integer counters an exact result must reproduce: cycles,
 * retired instructions, branches and mispredicts, and L1/L2 accesses
 * and misses.  Returns the names of the counters that differ.
 */
std::vector<std::string> counterMismatches(const msim::sim::RunResult &a,
                                           const msim::sim::RunResult &b);

/** Whether two sampled estimates are bit-identical. */
bool sameSampled(const msim::sim::SampledResult &a,
                 const msim::sim::SampledResult &b);

/** Signed CPI error of a sampled estimate against the exact run, in %. */
double cpiErrPct(const msim::sim::SampledResult &sampled,
                 const msim::sim::RunResult &exact);

/** Points that failed any check, by global point index, with reasons. */
class FailureLog
{
  public:
    void fail(size_t point, const std::string &why);
    size_t failed() const { return points_.size(); }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::set<size_t> points_;
    std::vector<std::string> messages_;
};

/**
 * Oracle check: rerun @p jobs through runJobs in JobMode::Live (the
 * PipelineCore path, regenerating each benchmark) and require each
 * result's counters to equal @p expected; failures are logged against
 * the matching entry of @p points.
 */
void checkAgainstLive(const std::vector<msim::core::Job> &jobs,
                      const std::vector<const msim::sim::RunResult *> &expected,
                      const std::vector<size_t> &points, unsigned threads,
                      FailureLog &log);

} // namespace e2e

#endif // E2EBENCH_CHECK_HH_
