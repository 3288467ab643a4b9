#include "check.hh"

#include <exception>

namespace e2e
{

using msim::sim::RunResult;

std::vector<std::string>
counterMismatches(const RunResult &a, const RunResult &b)
{
    struct Field
    {
        const char *name;
        msim::u64 a, b;
    };
    const Field fields[] = {
        {"cycles", a.exec.cycles, b.exec.cycles},
        {"retired", a.exec.retired, b.exec.retired},
        {"branches", a.exec.branches, b.exec.branches},
        {"mispredicts", a.exec.mispredicts, b.exec.mispredicts},
        {"l1.accesses", a.l1.accesses, b.l1.accesses},
        {"l1.misses", a.l1.misses, b.l1.misses},
        {"l2.accesses", a.l2.accesses, b.l2.accesses},
        {"l2.misses", a.l2.misses, b.l2.misses},
    };
    std::vector<std::string> out;
    for (const Field &f : fields)
        if (f.a != f.b)
            out.push_back(f.name);
    return out;
}

bool
sameSampled(const msim::sim::SampledResult &a,
            const msim::sim::SampledResult &b)
{
    auto same = [](const msim::sim::Estimate &x,
                   const msim::sim::Estimate &y) {
        return x.mean == y.mean && x.ci95 == y.ci95;
    };
    return same(a.cpi, b.cpi) && same(a.cycles, b.cycles) &&
           same(a.fracBusy, b.fracBusy) &&
           same(a.fracFuStall, b.fracFuStall) &&
           same(a.fracMemL1Hit, b.fracMemL1Hit) &&
           same(a.fracMemL1Miss, b.fracMemL1Miss) &&
           same(a.mispredictRate, b.mispredictRate) &&
           same(a.loadL1MissRate, b.loadL1MissRate) &&
           a.instructions == b.instructions &&
           a.measuredInstructions == b.measuredInstructions &&
           a.measuredChunks == b.measuredChunks && a.exact == b.exact &&
           counterMismatches(a.full, b.full).empty();
}

double
cpiErrPct(const msim::sim::SampledResult &sampled, const RunResult &exact)
{
    const double cpi = static_cast<double>(exact.exec.cycles) /
                       static_cast<double>(exact.exec.retired);
    return 100.0 * (sampled.cpi.mean - cpi) / cpi;
}

void
FailureLog::fail(size_t point, const std::string &why)
{
    points_.insert(point);
    messages_.push_back("point " + std::to_string(point) + ": " + why);
}

void
checkAgainstLive(const std::vector<msim::core::Job> &jobs,
                 const std::vector<const RunResult *> &expected,
                 const std::vector<size_t> &points, unsigned threads,
                 FailureLog &log)
{
    std::vector<RunResult> oracle;
    try {
        oracle = msim::core::runJobs(jobs, threads, msim::core::JobMode::Live);
    } catch (const std::exception &e) {
        for (const size_t p : points)
            log.fail(p, std::string("live oracle threw: ") + e.what());
        return;
    }
    for (size_t k = 0; k < jobs.size(); ++k)
        for (const std::string &f : counterMismatches(*expected[k], oracle[k]))
            log.fail(points[k], "live oracle differs in " + f);
}

} // namespace e2e
