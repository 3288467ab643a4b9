/**
 * @file
 * Tests of the benchmark itself: seeded job lists, warm-up isolation,
 * the output checker, span self times and the metric names it prints.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "check.hh"
#include "metrics.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace
{

using namespace e2e;

std::vector<std::string>
describe(const Workload &w)
{
    std::vector<std::string> out;
    for (const Call &c : w.calls)
        for (const msim::core::Job &j : c.jobs)
            out.push_back(c.name + " " + describeJob(j));
    for (const msim::core::Job &j : w.heldOut)
        out.push_back("held-out " + describeJob(j));
    return out;
}

TEST(Workloads, SameSeedGivesSameJobList)
{
    for (const std::string &name : workloadNames())
        for (u64 seed : {1ull, 7ull, 123456789ull})
            EXPECT_EQ(describe(makeWorkload(name, seed)),
                      describe(makeWorkload(name, seed)))
                << name << " seed " << seed;
}

TEST(Workloads, DifferentSeedsGiveDifferentJobLists)
{
    for (const std::string &name : workloadNames()) {
        std::set<std::vector<std::string>> lists;
        for (u64 seed = 1; seed <= 10; ++seed)
            lists.insert(describe(makeWorkload(name, seed)));
        EXPECT_EQ(lists.size(), 10u) << name;
    }
}

TEST(Workloads, UnknownNameThrows)
{
    EXPECT_THROW(makeWorkload("bogus", 1), std::invalid_argument);
}

TEST(Workloads, WarmupSharesNoTraceWithAnyWorkload)
{
    std::set<TraceKey> warm;
    for (const msim::core::Job &j : warmupJobs())
        warm.insert(traceKey(j));
    ASSERT_EQ(warm.size(), 12u);
    for (const std::string &name : workloadNames())
        for (u64 seed = 1; seed <= 20; ++seed) {
            const Workload w = makeWorkload(name, seed);
            for (const Call &c : w.calls)
                for (const msim::core::Job &j : c.jobs)
                    EXPECT_EQ(warm.count(traceKey(j)), 0u)
                        << name << " " << describeJob(j);
            for (const msim::core::Job &j : w.heldOut)
                EXPECT_EQ(warm.count(traceKey(j)), 0u);
        }
}

TEST(Workloads, SweepPointsAreDistinctValidGeometries)
{
    auto pow2 = [](msim::u32 x) { return x && !(x & (x - 1)); };
    for (const char *name : {"design-sweep", "sampled-sweep"})
        for (u64 seed = 1; seed <= 20; ++seed) {
            const Workload w = makeWorkload(name, seed);
            std::set<std::string> jobs, timedPoints;
            for (const msim::core::Job &j : w.calls.front().jobs) {
                jobs.insert(describeJob(j));
                timedPoints.insert(j.machine.label);
            }
            EXPECT_EQ(jobs.size(), w.points());
            for (const msim::core::Job &j : w.heldOut)
                EXPECT_EQ(timedPoints.count(j.machine.label), 0u)
                    << "held-out point repeats a timed point";
            for (const msim::core::Job &j : w.calls.front().jobs) {
                const auto &l1 = j.machine.mem.l1, &l2 = j.machine.mem.l2;
                EXPECT_TRUE(pow2(l1.sizeBytes / (l1.lineBytes * l1.assoc)));
                EXPECT_TRUE(pow2(l2.sizeBytes / (l2.lineBytes * l2.assoc)));
            }
        }
}

TEST(Workloads, DesignSweepSpansMemoryToComputeBound)
{
    const Workload w = makeWorkload("design-sweep", 3);
    ASSERT_EQ(w.points(), 48u);
    std::set<msim::u32> l1Sizes;
    for (const msim::core::Job &j : w.calls.front().jobs)
        l1Sizes.insert(j.machine.mem.l1.sizeBytes);
    EXPECT_EQ(l1Sizes.size(), 4u);
    EXPECT_LE(*l1Sizes.begin(), 2u * 1024);
    EXPECT_EQ(*l1Sizes.rbegin(), 64u * 1024);
}

msim::sim::RunResult
sampleResult()
{
    msim::sim::RunResult r;
    r.exec.cycles = 1000;
    r.exec.retired = 800;
    r.exec.branches = 100;
    r.exec.mispredicts = 7;
    r.l1.accesses = 300;
    r.l1.misses = 30;
    r.l2.accesses = 30;
    r.l2.misses = 3;
    return r;
}

TEST(Check, EqualResultsPass)
{
    EXPECT_TRUE(counterMismatches(sampleResult(), sampleResult()).empty());
}

TEST(Check, FlagsEachPerturbedCounter)
{
    using R = msim::sim::RunResult;
    const std::vector<std::pair<std::string, void (*)(R &)>> perturb = {
        {"cycles", [](R &r) { r.exec.cycles += 1; }},
        {"retired", [](R &r) { r.exec.retired -= 1; }},
        {"branches", [](R &r) { r.exec.branches += 1; }},
        {"mispredicts", [](R &r) { r.exec.mispredicts += 1; }},
        {"l1.accesses", [](R &r) { r.l1.accesses += 1; }},
        {"l1.misses", [](R &r) { r.l1.misses += 1; }},
        {"l2.accesses", [](R &r) { r.l2.accesses += 1; }},
        {"l2.misses", [](R &r) { r.l2.misses += 1; }},
    };
    for (const auto &[field, change] : perturb) {
        R bad = sampleResult();
        change(bad);
        EXPECT_EQ(counterMismatches(sampleResult(), bad),
                  std::vector<std::string>{field});
    }
}

TEST(Check, FlagsPerturbedSampledEstimate)
{
    msim::sim::SampledResult a;
    a.cpi = {1.25, 0.01};
    a.instructions = 1000;
    msim::sim::SampledResult b = a;
    EXPECT_TRUE(sameSampled(a, b));
    b.cpi.mean = std::nextafter(b.cpi.mean, 2.0);
    EXPECT_FALSE(sameSampled(a, b));
}

TEST(Check, FailureLogCountsPointsOnce)
{
    FailureLog log;
    log.fail(3, "x");
    log.fail(3, "y");
    log.fail(5, "z");
    EXPECT_EQ(log.failed(), 2u);
    EXPECT_EQ(log.messages().size(), 3u);
}

TEST(Check, CpiErrorIsRelativePercent)
{
    msim::sim::SampledResult s;
    s.cpi.mean = 1.3;
    const msim::sim::RunResult r = sampleResult(); // CPI 1.25
    EXPECT_NEAR(cpiErrPct(s, r), 4.0, 1e-9);
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer t;
    {
        Scope outer(&t, "outer");
        Scope inner(&t, "inner", 4);
    }
    ASSERT_EQ(t.spans().size(), 2u);
    const SpanRecord &o = t.spans()[0], &i = t.spans()[1];
    EXPECT_EQ(i.parent, 0);
    EXPECT_EQ(i.job, 4);
    EXPECT_LE(o.start, i.start);
    EXPECT_LE(i.end, o.end);
    const auto self = t.selfTimes();
    EXPECT_NEAR(self.at("outer"), (o.end - o.start) - (i.end - i.start),
                1e-12);
    EXPECT_NEAR(self.at("inner"), i.end - i.start, 1e-12);
}

TEST(Tracer, RejectsBadSpanName)
{
    Tracer t;
    EXPECT_THROW(t.begin("bad name"), std::invalid_argument);
    EXPECT_THROW(t.begin(""), std::invalid_argument);
}

/** Metric names listed under @p section in BENCHMARK.json. */
std::vector<std::pair<std::string, std::string>>
benchmarkJsonMetrics(const std::string &section)
{
    std::ifstream in(E2EBENCH_BENCHMARK_JSON);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    size_t pos = text.find("\"" + section + "\"");
    const size_t stop = text.find(']', pos);
    std::vector<std::pair<std::string, std::string>> out;
    auto field = [&text](const char *key, size_t from) {
        const size_t k = text.find(std::string("\"") + key + "\"", from);
        const size_t a = text.find('"', text.find(':', k) + 1);
        return std::make_pair(text.substr(a + 1, text.find('"', a + 1) - a - 1),
                              k);
    };
    while (true) {
        const auto [name, at] = field("name", pos);
        if (at == std::string::npos || at > stop)
            break;
        const auto [unit, uat] = field("unit", at);
        out.push_back({name, unit});
        pos = uat + 1;
    }
    return out;
}

std::vector<std::pair<std::string, std::string>>
namesAndUnits(const std::vector<Metric> &ms)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const Metric &m : ms)
        out.push_back({m.name, m.unit});
    return out;
}

TEST(Metrics, EndToEndMatchBenchmarkJson)
{
    EndToEnd e;
    e.wallS = 2.0;
    e.points = 48;
    e.simInsts = 1e8;
    const std::vector<Metric> ms = endToEndMetrics(e);
    for (const Metric &m : ms) {
        EXPECT_TRUE(validName(m.name)) << m.name;
        EXPECT_TRUE(validUnit(m.unit)) << m.unit;
    }
    EXPECT_EQ(namesAndUnits(ms), benchmarkJsonMetrics("end_to_end"));
    EXPECT_NO_THROW(resultJson(true, 1, 0, ms));
}

TEST(Metrics, PerLayerMatchBenchmarkJson)
{
    const msim::sim::RunResult r = sampleResult();
    const std::vector<Metric> ms =
        perLayerMetrics(PerLayer{}, simulatedMetrics({&r}));
    for (const Metric &m : ms) {
        EXPECT_TRUE(validName(m.name)) << m.name;
        EXPECT_TRUE(validUnit(m.unit)) << m.unit;
    }
    EXPECT_EQ(namesAndUnits(ms), benchmarkJsonMetrics("per_layer"));
    EXPECT_NO_THROW(resultJson(true, 1, 0, ms));
}

TEST(Metrics, ResultJsonRejectsBadMetrics)
{
    EXPECT_THROW(resultJson(true, 1, 0, {{"a b", 1.0, "s"}}),
                 std::invalid_argument);
    EXPECT_THROW(resultJson(true, 1, 0, {{"a", 1.0, "s s"}}),
                 std::invalid_argument);
    EXPECT_THROW(resultJson(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
                 std::invalid_argument);
    EXPECT_THROW(resultJson(true, 1, 0, {{"a", 0.0 / 0.0, "s"}}),
                 std::invalid_argument);
}

TEST(Metrics, ResultJsonKeepsEveryDigit)
{
    const std::string line =
        resultJson(true, 3, 0, {{"wall_s", 1.2345678901234567, "s"}});
    EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                    "\"metrics\": {\"wall_s\": {\"value\": "
                    "1.2345678901234567, \"unit\": \"s\"}}}");
}

TEST(Metrics, MedianOfOddAndEven)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

} // namespace
