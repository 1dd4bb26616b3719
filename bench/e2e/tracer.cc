#include "tracer.hh"

#include <cstdio>
#include <fstream>

#include "stats.hh"

namespace e2e {

namespace {

thread_local int64_t t_current = -1;
thread_local uint64_t t_request = 0;

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t number = next.fetch_add(1);
    return number;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

void
setCurrentRequest(uint64_t request)
{
    t_request = request;
}

int64_t
Tracer::open(const char *name, uint64_t request)
{
    if (!enabled())
        return -1;
    SpanRecord rec;
    rec.name = name;
    rec.parent = t_current;
    rec.request = request;
    rec.thread = threadNumber();
    std::lock_guard<std::mutex> lock(_mu);
    rec.start = nowNs();
    _spans.push_back(rec);
    return static_cast<int64_t>(_spans.size() - 1);
}

void
Tracer::close(int64_t index)
{
    if (index < 0)
        return;
    uint64_t end = nowNs();
    std::lock_guard<std::mutex> lock(_mu);
    _spans[static_cast<size_t>(index)].end = end;
}

int64_t
Tracer::record(const SpanRecord &span)
{
    std::lock_guard<std::mutex> lock(_mu);
    _spans.push_back(span);
    _spans.back().thread = threadNumber();
    return static_cast<int64_t>(_spans.size() - 1);
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _spans.size();
}

std::vector<SpanRecord>
Tracer::since(size_t from) const
{
    std::lock_guard<std::mutex> lock(_mu);
    if (from >= _spans.size())
        return {};
    return {_spans.begin() + static_cast<ptrdiff_t>(from), _spans.end()};
}

bool
Tracer::writeChrome(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    std::vector<SpanRecord> spans = since(0);
    uint64_t origin = spans.empty() ? 0 : spans.front().start;
    for (const SpanRecord &s : spans)
        origin = std::min(origin, s.start);

    std::vector<double> child(spans.size(), 0.0);
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] +=
                static_cast<double>(s.end - s.start);
    }

    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    char buf[384];
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        double dur = static_cast<double>(s.end - s.start);
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
            "\"self_us\":%.3f}}",
            i ? "," : "", s.name,
            static_cast<double>(s.start - origin) / 1e3, dur / 1e3,
            s.thread, i, static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.request),
            (dur - child[i]) / 1e3);
        os << buf;
    }
    os << "\n],\"otherData\":{";
    for (size_t i = 0; i < meta.size(); ++i) {
        os << (i ? "," : "") << "\"" << jsonEscape(meta[i].first)
           << "\":\"" << jsonEscape(meta[i].second) << "\"";
    }
    os << "}}\n";
    return static_cast<bool>(os);
}

Scope::Scope(const char *name)
    : _index(tracer().open(name, t_request)), _saved(t_current)
{
    if (_index >= 0)
        t_current = _index;
}

Scope::~Scope()
{
    if (_index >= 0) {
        tracer().close(_index);
        t_current = _saved;
    }
}

SelfTimes
selfTimes(const std::vector<SpanRecord> &spans, size_t base)
{
    SelfTimes out;
    std::vector<double> child(spans.size(), 0.0);
    for (const SpanRecord &s : spans) {
        if (s.parent >= static_cast<int64_t>(base))
            child[static_cast<size_t>(s.parent) - base] +=
                static_cast<double>(s.end - s.start) / 1e9;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        double dur = static_cast<double>(s.end - s.start) / 1e9;
        out.selfSeconds[s.name] += dur - child[i];
        if (s.parent < 0)
            out.rootSeconds += dur;
    }
    return out;
}

} // namespace e2e
