#include "metrics.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

#include "tracer.hh"

namespace e2e
{

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (const char c : unit) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                        c == '%' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
formatNumber(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
resultJson(bool correct, size_t attempted, size_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    std::set<std::string> seen;
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!validName(m.name) || m.name.size() > 64 ||
            !seen.insert(m.name).second)
            throw std::invalid_argument("bad metric name '" + m.name + "'");
        if (!validUnit(m.unit))
            throw std::invalid_argument("bad unit '" + m.unit + "' for " +
                                        m.name);
        if (!std::isfinite(m.value))
            throw std::invalid_argument("non-finite value for " + m.name);
        if (i)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + formatNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<Metric>
simulatedMetrics(const std::vector<const msim::sim::RunResult *> &results)
{
    double cycles = 0, busy = 0, fu = 0, memHit = 0, memMiss = 0;
    double l1Acc = 0, l1Miss = 0, l2Acc = 0, l2Miss = 0, mshrCycles = 0;
    double logIpc = 0;
    for (const msim::sim::RunResult *r : results) {
        const double c = static_cast<double>(r->exec.cycles);
        cycles += c;
        busy += r->exec.busy;
        fu += r->exec.fuStall;
        memHit += r->exec.memL1Hit;
        memMiss += r->exec.memL1Miss;
        l1Acc += static_cast<double>(r->l1.accesses);
        l1Miss += static_cast<double>(r->l1.misses);
        l2Acc += static_cast<double>(r->l2.accesses);
        l2Miss += static_cast<double>(r->l2.misses);
        mshrCycles += r->l1.mshrMeanOccupancy * c;
        logIpc += std::log(static_cast<double>(r->exec.retired) / c);
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double n = static_cast<double>(results.size());
    return {
        {"sim.cycles", cycles, "cycles"},
        {"sim.ipc_geomean", n > 0 ? std::exp(logIpc / n) : 0.0,
         "inst/cycle"},
        {"cpu.frac_busy", ratio(busy, cycles), "fraction"},
        {"cpu.frac_fu_stall", ratio(fu, cycles), "fraction"},
        {"cpu.frac_mem_l1_hit", ratio(memHit, cycles), "fraction"},
        {"cpu.frac_mem_l1_miss", ratio(memMiss, cycles), "fraction"},
        {"mem.l1_miss_rate", ratio(l1Miss, l1Acc), "fraction"},
        {"mem.l2_miss_rate", ratio(l2Miss, l2Acc), "fraction"},
        {"mem.mshr_occupancy_mean", ratio(mshrCycles, cycles), "entries"},
    };
}

std::vector<Metric>
endToEndMetrics(const EndToEnd &e)
{
    return {
        {"wall_s", e.wallS, "s"},
        {"points_per_s", e.points / e.wallS, "1/s"},
        {"sim_mips", e.simInsts / (e.wallS * 1e6), "inst/us"},
        {"setup_s", e.setupS, "s"},
        {"peak_rss_mb", e.peakRssMb, "MiB"},
        {"sampled_cpi_err_max_pct", e.cpiErrMaxPct, "%"},
    };
}

std::vector<Metric>
perLayerMetrics(const PerLayer &p, const std::vector<Metric> &simulated)
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::vector<Metric> out = {
        {"record.ns_per_inst", 1e9 * ratio(p.recordS, p.recordInsts),
         "ns/inst"},
        {"record.traces", p.recordTraces, "count"},
        {"record.insts", p.recordInsts, "count"},
        {"record.self_s", p.recordS, "s"},
        {"replay_ooo.ns_per_inst", 1e9 * ratio(p.oooS, p.oooInsts),
         "ns/inst"},
        {"replay_ooo.ns_per_cycle", 1e9 * ratio(p.oooS, p.oooCycles),
         "ns/cycle"},
        {"replay_ooo.self_s", p.oooS, "s"},
        {"replay_inorder.ns_per_inst",
         1e9 * ratio(p.inorderS, p.inorderInsts), "ns/inst"},
        {"replay_inorder.ns_per_cycle",
         1e9 * ratio(p.inorderS, p.inorderCycles), "ns/cycle"},
        {"replay_inorder.self_s", p.inorderS, "s"},
        {"sampled.plan_ns_per_inst", 1e9 * ratio(p.planS, p.planInsts),
         "ns/inst"},
        {"sampled.plan_self_s", p.planS, "s"},
        {"sampled.point_ms", 1e3 * ratio(p.sampledS, p.sampledPoints),
         "ms"},
        {"sampled.replay_self_s", p.sampledS, "s"},
        {"sampled.measured_frac", ratio(p.measuredInsts, p.sampledInsts),
         "fraction"},
        {"core.parallel_efficiency",
         ratio(p.tracedS, p.threads * p.wallS), "fraction"},
    };
    out.insert(out.end(), simulated.begin(), simulated.end());
    return out;
}

} // namespace e2e
