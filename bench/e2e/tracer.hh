/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * sieve_e2e wraps each call into a product module in a `Scope`; with
 * tracing on, the scope records one span (name, start, end, parent,
 * request id, thread). Spans stay in memory until the run ends, when
 * they are written as Chrome trace JSON and folded into per-layer
 * self times: a span's duration minus the durations of its children.
 * With tracing off a scope costs one relaxed atomic load.
 */

#ifndef SIEVE_BENCH_E2E_TRACER_HH
#define SIEVE_BENCH_E2E_TRACER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct SpanRecord
{
    const char *name = ""; //!< static layer name
    uint64_t start = 0;    //!< steady-clock ns
    uint64_t end = 0;
    int64_t parent = -1;   //!< index of the enclosing span, -1 = root
    uint64_t request = 0;  //!< operation the span belongs to
    uint32_t thread = 0;   //!< small per-process thread number
};

class Tracer
{
  public:
    void setEnabled(bool on) { _on.store(on, std::memory_order_relaxed); }
    bool enabled() const { return _on.load(std::memory_order_relaxed); }

    /** Start a span; returns its index (-1 when tracing is off). */
    int64_t open(const char *name, uint64_t request);
    void close(int64_t index);

    /** Add a finished span built from recorded timestamps. */
    int64_t record(const SpanRecord &span);

    size_t size() const;

    /** Copy of spans [from, size()). */
    std::vector<SpanRecord> since(size_t from) const;

    /** Write every span as Chrome trace JSON ("ph":"X" events). */
    bool writeChrome(const std::string &path,
                     const std::vector<std::pair<std::string,
                                                 std::string>> &meta) const;

  private:
    std::atomic<bool> _on{false};
    mutable std::mutex _mu; //!< guards _spans
    std::vector<SpanRecord> _spans;
};

/** The process-wide recorder. */
Tracer &tracer();

/** Request id that later scopes on this thread inherit. */
void setCurrentRequest(uint64_t request);

/** RAII span around one wrapped call. */
class Scope
{
  public:
    explicit Scope(const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int64_t _index;
    int64_t _saved;
};

/** Run `fn` inside a span named `name`; returns what `fn` returns. */
template <typename Fn>
decltype(auto)
layer(const char *name, Fn &&fn)
{
    Scope scope(name);
    return fn();
}

/** Self and total time of a span set, grouped by span name. */
struct SelfTimes
{
    std::map<std::string, double> selfSeconds; //!< by span name
    double rootSeconds = 0.0; //!< summed durations of root spans
};

/**
 * Fold spans (a contiguous copy from Tracer::since(base)) into self
 * times. Parent indexes are absolute, so `base` maps them back.
 */
SelfTimes selfTimes(const std::vector<SpanRecord> &spans, size_t base);

} // namespace e2e

#endif // SIEVE_BENCH_E2E_TRACER_HH
