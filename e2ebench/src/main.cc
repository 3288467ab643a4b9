/**
 * @file
 * e2ebench: the end-to-end benchmark.
 *
 *   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--spans-out <file>]
 *
 * A run measures set-up (setup_s: the median first warm-up call of
 * three fresh processes), repeats the workload's calls in timed rounds
 * for about --seconds (wall_s: the median round), then checks the
 * outputs.  With --trace 1 it also runs the workload once more on one
 * thread through the layer functions, with a span around every call,
 * and reports per-layer metrics instead of end-to-end ones.  The last
 * stdout line is the JSON result; see README.md.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "metrics.hh"
#include "sim/runner.hh"
#include "sim/sampled.hh"
#include "tracer.hh"
#include "workloads.hh"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace e2e;
using msim::core::Job;
using msim::sim::RunResult;
using msim::sim::SampledResult;

/** Worker threads per call: half the 4-CPU host, leaving headroom. */
constexpr unsigned kThreads = 2;
/** Set-up samples taken in forked children; the run's own is one more. */
constexpr int kSetupForks = 2;
/** Exact points per run checked against the live oracle. */
constexpr size_t kLiveChecks = 3;

/** Env toggles that would change which code path is measured. */
const char *const kRefusedEnv[] = {"MSIM_SIMD", "MSIM_EVENT_SKIP",
                                   "MSIM_MEM_BATCH", "MSIM_LIVE_JOBS"};

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--spans-out <file>]\n"
                 "workloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = val;
            else if (arg == "--seed")
                o.seed = std::stoull(val);
            else if (arg == "--seconds")
                o.seconds = std::stod(val);
            else if (arg == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (arg == "--spans-out")
                o.spansOut = val;
            else
                usage(("unknown option " + arg).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** One "key: value" line of /proc/cpuinfo, or "" if absent. */
std::string
cpuinfoField(const char *key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "";
}

/** The widest x86 vector extension the host CPU reports. */
std::string
hostSimd()
{
    const std::string flags = " " + cpuinfoField("flags") + " ";
    for (const char *f : {"avx512f", "avx2", "avx", "sse4_2"})
        if (flags.find(std::string(" ") + f + " ") != std::string::npos)
            return f;
    return "none";
}

std::string
metaJson(const Options &o)
{
    std::string cpu = cpuinfoField("model name");
    if (cpu.empty())
        cpu = "unknown";
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"threads\": %u, \"host_cpu\": \"%s\", "
        "\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"host_simd\": \"%s\"}",
        jsonEscape(o.workload).c_str(),
        static_cast<unsigned long long>(o.seed),
        formatNumber(o.seconds).c_str(), o.trace ? 1 : 0, kThreads,
        jsonEscape(cpu).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
        jsonEscape(__VERSION__).c_str(), E2EBENCH_BUILD_TYPE,
        hostSimd().c_str());
    return buf;
}

/**
 * Set-up time samples.  Set-up is a fresh process's first runJobs call
 * (the warm-up list): it starts the worker pool, runs lazy static
 * initialisation and faults in the first heap.  Each of kSetupForks
 * children, forked before this process has started any thread, times
 * its own first call and reports it through a pipe; this process's
 * first call is the last sample.
 */
std::vector<double>
setupSamples()
{
    const std::vector<Job> warmup = warmupJobs();
    std::vector<double> out;
    std::fflush(nullptr);
    for (int i = 0; i < kSetupForks; ++i) {
        int fd[2];
        if (pipe(fd) != 0)
            throw std::runtime_error("set-up: pipe failed");
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("set-up: fork failed");
        if (pid == 0) {
            close(fd[0]);
            double t = -1.0; // stays negative if the call throws
            try {
                const double t0 = now();
                msim::core::runJobs(warmup, kThreads);
                t = now() - t0;
            } catch (...) {
            }
            const bool sent = write(fd[1], &t, sizeof t) == sizeof t;
            _exit(sent && t >= 0 ? 0 : 1);
        }
        close(fd[1]);
        double t = -1.0;
        const ssize_t got = read(fd[0], &t, sizeof t);
        close(fd[0]);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (got != static_cast<ssize_t>(sizeof t) || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            throw std::runtime_error("set-up: child run failed");
        out.push_back(t);
    }
    const double t0 = now();
    msim::core::runJobs(warmup, kThreads);
    out.push_back(now() - t0);
    return out;
}

/** One round's outputs, indexed by call. */
struct Round
{
    std::vector<std::vector<RunResult>> exact;
    std::vector<std::vector<SampledResult>> sampled;
};

/** Global point index of each call's first job. */
std::vector<size_t>
callBases(const Workload &w)
{
    std::vector<size_t> base;
    size_t n = 0;
    for (const Call &c : w.calls) {
        base.push_back(n);
        n += c.jobs.size();
    }
    return base;
}

/** Run every call once through the public entry points. */
Round
runRound(const Workload &w, FailureLog &log)
{
    const std::vector<size_t> base = callBases(w);
    Round r;
    r.exact.resize(w.calls.size());
    r.sampled.resize(w.calls.size());
    for (size_t c = 0; c < w.calls.size(); ++c) {
        const Call &call = w.calls[c];
        try {
            if (call.kind == CallKind::Exact)
                r.exact[c] = msim::core::runJobs(call.jobs, kThreads);
            else
                r.sampled[c] =
                    msim::core::runJobsSampled(call.jobs, {}, kThreads);
        } catch (const std::exception &e) {
            for (size_t j = 0; j < call.jobs.size(); ++j)
                log.fail(base[c] + j,
                         call.name + " threw: " + std::string(e.what()));
        }
    }
    return r;
}

/** Later rounds must reproduce the first bit for bit. */
void
checkRepeat(const Workload &w, const Round &first, const Round &again,
            FailureLog &log)
{
    const std::vector<size_t> base = callBases(w);
    for (size_t c = 0; c < w.calls.size(); ++c) {
        const auto &e0 = first.exact[c], &e1 = again.exact[c];
        const auto &s0 = first.sampled[c], &s1 = again.sampled[c];
        for (size_t j = 0; j < e0.size() && j < e1.size(); ++j)
            for (const std::string &f : counterMismatches(e0[j], e1[j]))
                log.fail(base[c] + j, "repeat differs in " + f);
        for (size_t j = 0; j < s0.size() && j < s1.size(); ++j)
            if (!sameSampled(s0[j], s1[j]))
                log.fail(base[c] + j, "repeat sampled estimate differs");
    }
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Instructions a round's outputs cover (whole traces when sampled). */
double
roundInstructions(const Round &r)
{
    double n = 0;
    for (const auto &call : r.exact)
        for (const RunResult &x : call)
            n += static_cast<double>(x.tbInstrs);
    for (const auto &call : r.sampled)
        for (const SampledResult &x : call)
            n += static_cast<double>(x.instructions);
    return n;
}

/**
 * One trace group of the traced pass: record the trace, then replay it
 * for every member job, each call in its own span.  Results must equal
 * the timed round's (@p refExact / @p refSampled, indexed by job).
 */
void
tracedGroup(const Call &call, const std::vector<size_t> &members,
            size_t base, const std::vector<RunResult> &refExact,
            const std::vector<SampledResult> &refSampled, Tracer &tracer,
            PerLayer &layer, FailureLog &log)
{
    const Job &first = call.jobs[members.front()];
    const long firstPoint = static_cast<long>(base + members.front());
    Scope groupSpan(&tracer, "group", firstPoint);
    const msim::core::Benchmark &bench =
        msim::core::findBenchmark(first.benchmark);
    const msim::prog::Variant variant = first.variant;
    msim::prog::RecordedTrace trace;
    {
        Scope s(&tracer, "record", firstPoint);
        trace = msim::sim::recordTrace(
            [&bench, variant](msim::prog::TraceBuilder &tb) {
                bench.generate(tb, variant);
            },
            first.machine.skewArrays, first.machine.visFeatures);
    }
    layer.recordTraces += 1;
    layer.recordInsts += static_cast<double>(trace.instCount());

    if (call.kind == CallKind::Exact) {
        for (const size_t j : members) {
            const Job &job = call.jobs[j];
            const bool ooo = job.machine.core.outOfOrder;
            RunResult r;
            {
                Scope s(&tracer, ooo ? "replay_ooo" : "replay_inorder",
                        static_cast<long>(base + j));
                r = msim::sim::replayTrace(trace, job.machine);
            }
            (ooo ? layer.oooInsts : layer.inorderInsts) +=
                static_cast<double>(r.exec.retired);
            (ooo ? layer.oooCycles : layer.inorderCycles) +=
                static_cast<double>(r.exec.cycles);
            if (j < refExact.size())
                for (const std::string &f : counterMismatches(r, refExact[j]))
                    log.fail(base + j, "traced replay differs in " + f);
        }
        return;
    }

    msim::sim::SampledPlan plan;
    {
        Scope s(&tracer, "sampled.plan", firstPoint);
        plan = msim::sim::prepareSampled(trace, {});
    }
    layer.planInsts += static_cast<double>(trace.instCount());
    for (const size_t j : members) {
        SampledResult r;
        {
            Scope s(&tracer, "sampled.replay", static_cast<long>(base + j));
            r = msim::sim::replayTraceSampled(plan, call.jobs[j].machine);
        }
        layer.sampledPoints += 1;
        layer.measuredInsts += static_cast<double>(r.measuredInstructions);
        layer.sampledInsts += static_cast<double>(r.instructions);
        if (j < refSampled.size() && !sameSampled(r, refSampled[j]))
            log.fail(base + j, "traced sampled replay differs");
    }
}

/**
 * The traced pass: the workload once more on this thread, each call's
 * jobs grouped by trace like the entry points group them, with a span
 * around every layer call.
 */
void
tracedPass(const Workload &w, const Round &ref, Tracer &tracer,
           PerLayer &layer, FailureLog &log)
{
    const std::vector<size_t> base = callBases(w);
    Scope root(&tracer, "workload." + w.name);
    for (size_t c = 0; c < w.calls.size(); ++c) {
        const Call &call = w.calls[c];
        Scope callSpan(&tracer, "call." + call.name);
        std::map<TraceKey, std::vector<size_t>> groups;
        for (size_t j = 0; j < call.jobs.size(); ++j)
            groups[traceKey(call.jobs[j])].push_back(j);
        for (const auto &[key, members] : groups) {
            try {
                tracedGroup(call, members, base[c], ref.exact[c],
                            ref.sampled[c], tracer, layer, log);
            } catch (const std::exception &e) {
                for (const size_t j : members)
                    log.fail(base[c] + j,
                             std::string("traced pass threw: ") + e.what());
            }
        }
    }
}

void
printSelfTable(const Tracer &tracer)
{
    const std::map<std::string, double> self = tracer.selfTimes();
    const std::map<std::string, double> total = tracer.totalTimes();
    std::map<std::string, size_t> count;
    double traced = 0;
    for (const SpanRecord &s : tracer.spans()) {
        ++count[s.name];
        if (s.parent < 0)
            traced += s.end - s.start;
    }
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &[name, t] : self)
        rows.push_back({t, name});
    std::sort(rows.rbegin(), rows.rend());
    std::printf("%-28s %7s %10s %10s %7s\n", "span", "count", "total_s",
                "self_s", "self%");
    for (const auto &[t, name] : rows)
        std::printf("%-28s %7zu %10.3f %10.3f %6.1f%%\n", name.c_str(),
                    count[name], total.at(name), t,
                    traced > 0 ? 100.0 * t / traced : 0.0);
}

/** What the timed phase leaves behind. */
struct Timed
{
    std::vector<double> roundTimes;
    Round first;
    double peakRssMb = 0.0;
};

/**
 * Whole rounds until less than half a round of the budget is left.
 * The peak resident set is read after the first round: later rounds add
 * only allocator fragmentation, and their number depends on the host's
 * speed.
 */
Timed
timedPhase(const Workload &w, const Options &opt, FailureLog &log)
{
    Timed t;
    const double start = now();
    while (t.roundTimes.empty() ||
           now() - start < opt.seconds - 0.5 * median(t.roundTimes)) {
        const double t0 = now();
        Round r = runRound(w, log);
        t.roundTimes.push_back(now() - t0);
        if (t.roundTimes.size() == 1) {
            t.peakRssMb = peakRssMb();
            t.first = std::move(r);
        } else {
            checkRepeat(w, t.first, r, log);
        }
    }
    return t;
}

/** What the untimed checks leave behind. */
struct Checked
{
    std::vector<RunResult> heldOutExact;
    double cpiErrMaxPct = 0.0;
};

/**
 * The untimed checks: exact results for the held-out panel, the live
 * oracle on a seeded subset of every exact point, and the sampled CPI
 * error on the panel (or, without one, on the workload's distinct
 * out-of-order points).
 */
Checked
runChecks(const Workload &w, const Round &first, const Options &opt,
          FailureLog &log)
{
    Checked out;
    if (!w.heldOut.empty()) {
        try {
            out.heldOutExact = msim::core::runJobs(w.heldOut, kThreads);
        } catch (const std::exception &e) {
            for (size_t j = 0; j < w.heldOut.size(); ++j)
                log.fail(w.points() + j,
                         std::string("held-out threw: ") + e.what());
        }
    }

    struct ExactPoint
    {
        const Job *job;
        const RunResult *result;
        size_t point;
    };
    const std::vector<size_t> base = callBases(w);
    std::vector<ExactPoint> exact;
    for (size_t c = 0; c < w.calls.size(); ++c)
        for (size_t j = 0; j < first.exact[c].size(); ++j)
            exact.push_back({&w.calls[c].jobs[j], &first.exact[c][j],
                             base[c] + j});
    for (size_t j = 0; j < out.heldOutExact.size(); ++j)
        exact.push_back({&w.heldOut[j], &out.heldOutExact[j],
                         w.points() + j});

    std::vector<Job> liveJobs;
    std::vector<const RunResult *> liveExpected;
    std::vector<size_t> livePoints;
    for (const size_t k :
         pickSubset(exact.size(), kLiveChecks, opt.seed ^ 0x11fe)) {
        liveJobs.push_back(*exact[k].job);
        liveExpected.push_back(exact[k].result);
        livePoints.push_back(exact[k].point);
    }
    checkAgainstLive(liveJobs, liveExpected, livePoints, kThreads, log);

    std::vector<ExactPoint> acc;
    std::set<std::string> seen;
    for (const ExactPoint &p : exact) {
        const bool panel = p.point >= w.points();
        if (w.heldOut.empty() ? p.job->machine.core.outOfOrder &&
                                    seen.insert(describeJob(*p.job)).second
                              : panel)
            acc.push_back(p);
    }
    std::vector<Job> accJobs;
    for (const ExactPoint &p : acc)
        accJobs.push_back(*p.job);
    try {
        const std::vector<SampledResult> est =
            msim::core::runJobsSampled(accJobs, {}, kThreads);
        for (size_t i = 0; i < est.size(); ++i)
            out.cpiErrMaxPct =
                std::max(out.cpiErrMaxPct,
                         std::fabs(cpiErrPct(est[i], *acc[i].result)));
    } catch (const std::exception &e) {
        for (const ExactPoint &p : acc)
            log.fail(p.point, std::string("sampled check threw: ") +
                                  e.what());
    }
    return out;
}

/** The traced pass, its self-time table, span file and metrics. */
std::vector<Metric>
tracedMetrics(const Workload &w, const Timed &timed, const Checked &checked,
              const Options &opt, const std::string &meta, FailureLog &log)
{
    Tracer tracer;
    PerLayer layer;
    tracedPass(w, timed.first, tracer, layer, log);
    const std::map<std::string, double> self = tracer.selfTimes();
    auto selfOf = [&self](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    layer.recordS = selfOf("record");
    layer.oooS = selfOf("replay_ooo");
    layer.inorderS = selfOf("replay_inorder");
    layer.planS = selfOf("sampled.plan");
    layer.sampledS = selfOf("sampled.replay");
    layer.tracedS =
        tracer.spans().front().end - tracer.spans().front().start;
    layer.wallS = median(timed.roundTimes);
    layer.threads = kThreads;
    printSelfTable(tracer);

    if (!opt.spansOut.empty()) {
        const std::filesystem::path path(opt.spansOut);
        if (path.has_parent_path())
            std::filesystem::create_directories(path.parent_path());
        if (std::FILE *f = std::fopen(opt.spansOut.c_str(), "w")) {
            tracer.writeJson(f, meta);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "e2ebench: cannot write %s\n",
                         opt.spansOut.c_str());
        }
    }

    // Simulated statistics of the timed exact points, or of the
    // held-out panel when the timed points are sampled.
    std::vector<const RunResult *> simulated;
    for (const auto &call : timed.first.exact)
        for (const RunResult &r : call)
            simulated.push_back(&r);
    if (simulated.empty())
        for (const RunResult &r : checked.heldOutExact)
            simulated.push_back(&r);
    return perLayerMetrics(layer, simulatedMetrics(simulated));
}

int
run(const Options &opt)
{
    const Workload w = makeWorkload(opt.workload, opt.seed);
    const std::string meta = metaJson(opt);
    std::printf("meta %s\n", meta.c_str());

    FailureLog log;
    const double t0 = now();
    const std::vector<double> setupTimes = setupSamples();
    const double t1 = now();
    const Timed timed = timedPhase(w, opt, log);
    const double t2 = now();
    const Checked checked = runChecks(w, timed.first, opt, log);
    std::fprintf(stderr,
                 "e2ebench: set-up %.2f s, timed phase %.2f s (%zu "
                 "rounds), checks %.2f s\n",
                 t1 - t0, t2 - t1, timed.roundTimes.size(), now() - t2);

    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = tracedMetrics(w, timed, checked, opt, meta, log);
    } else {
        EndToEnd e;
        e.wallS = median(timed.roundTimes);
        e.points = static_cast<double>(w.points());
        e.simInsts = roundInstructions(timed.first);
        e.setupS = median(setupTimes);
        e.peakRssMb = timed.peakRssMb;
        e.cpiErrMaxPct = checked.cpiErrMaxPct;
        metrics = endToEndMetrics(e);
    }

    std::printf("rounds_s");
    for (const double t : timed.roundTimes)
        std::printf(" %.3f", t);
    std::printf("\n");
    for (const std::string &m : log.messages())
        std::printf("FAILED %s\n", m.c_str());
    for (const Metric &m : metrics)
        std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%s\n",
                resultJson(log.failed() == 0,
                           w.points() + w.heldOut.size(), log.failed(),
                           metrics)
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "e2ebench: refusing to run with %s set: the "
                         "benchmark measures the default code paths\n",
                         name);
            return 2;
        }
    }
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
