/**
 * @file
 * Single-thread span recorder for the traced run.  A span records its
 * name, start and end (seconds since the tracer was made), its parent
 * span and the job it serves.  Spans stay in memory until the run
 * ends; selfTimes() derives each name's self time (duration minus the
 * time its direct children cover) and writeJson() dumps them all.
 */

#ifndef E2EBENCH_TRACER_HH_
#define E2EBENCH_TRACER_HH_

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e
{

struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1; ///< index of the enclosing span, -1 at the root
    long job = -1;    ///< global point index, -1 when not one job's
};

/** Whether @p name is a valid span or metric name: [A-Za-z0-9_.-]+. */
bool validName(const std::string &name);

class Tracer
{
  public:
    Tracer();

    /** Open a span under the innermost open one; returns its index. */
    size_t begin(const std::string &name, long job = -1);
    /** Close span @p index and any span still open inside it. */
    void end(size_t index) noexcept;

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Self time in seconds, summed per span name. */
    std::map<std::string, double> selfTimes() const;

    /** Total duration in seconds, summed per span name. */
    std::map<std::string, double> totalTimes() const;

    /** One JSON object per span, one per line, after a meta line. */
    void writeJson(std::FILE *f, const std::string &metaJson) const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point t0_;
    std::vector<SpanRecord> spans_;
    std::vector<size_t> open_;
};

/** RAII span; a null tracer makes it inert. */
class Scope
{
  public:
    Scope(Tracer *tracer, const std::string &name, long job = -1)
        : tracer_(tracer), index_(tracer ? tracer->begin(name, job) : 0)
    {}
    ~Scope()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    size_t index_;
};

} // namespace e2e

#endif // E2EBENCH_TRACER_HH_
