#include "tracer.hh"

#include <stdexcept>

namespace e2e
{

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
}

size_t
Tracer::begin(const std::string &name, long job)
{
    if (!validName(name))
        throw std::invalid_argument("bad span name '" + name + "'");
    SpanRecord s;
    s.name = name;
    s.job = job;
    s.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::end(size_t index) noexcept
{
    // Scopes close innermost first, so @p index is the innermost open
    // span; closing it also closes anything still open inside it.
    const double t = now();
    while (!open_.empty() && open_.back() >= index) {
        spans_[open_.back()].end = t;
        open_.pop_back();
    }
}

std::map<std::string, double>
Tracer::selfTimes() const
{
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            childTime[static_cast<size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += spans_[i].end - spans_[i].start - childTime[i];
    return out;
}

std::map<std::string, double>
Tracer::totalTimes() const
{
    std::map<std::string, double> out;
    for (const SpanRecord &s : spans_)
        out[s.name] += s.end - s.start;
    return out;
}

void
Tracer::writeJson(std::FILE *f, const std::string &metaJson) const
{
    std::fprintf(f, "{\"meta\": %s}\n", metaJson.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"parent\": %ld, \"job\": %ld}\n",
                     i, s.name.c_str(), s.start, s.end, s.parent, s.job);
    }
}

} // namespace e2e
