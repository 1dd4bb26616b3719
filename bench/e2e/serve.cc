/**
 * @file
 * The two serving workloads: serve-unique and serve-repeat.
 *
 * Each run starts its own `sieve serve` daemon (a separate process,
 * fixed flags) and drives it with a seeded open loop: Poisson
 * arrivals over kLoadConnections connections plus a probe connection
 * that pings at a fixed rate. A low-rate phase is followed by a
 * high-rate phase; every request is timed from the moment it was
 * due, so a stalled daemon charges the wait to every request queued
 * behind the stall. The generator is one thread polling all four
 * sockets, which also reports how late it sent each request.
 *
 * serve-unique never repeats a request: every simulate is a
 * SimCache miss. serve-repeat draws every kind from a hot set of
 * kHotSet requests answered once during set-up, so every simulate is
 * a cache hit. serve-repeat checks every response against an
 * in-process RequestRunner; serve-unique checks a seeded
 * 1-in-kCheckOneIn subset after the timed phases.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "common/rng.hh"
#include "e2e.hh"
#include "gpusim/trace_synth.hh"
#include "sampling/sieve.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/runner.hh"
#include "stats.hh"
#include "trace/sass_trace.hh"
#include "tracer.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace fs = std::filesystem;
using namespace sieve;
using serve::RequestKind;

namespace e2e {

namespace {

/**
 * Open-loop arrival rates in requests per second, the same on every
 * run. The high rate sits at about half of the daemon's measured
 * saturation on the reference machine (README.md), with no
 * rejections and no backlog.
 */
constexpr double kLowRps = 20.0;
constexpr double kHighRps = 40.0;
constexpr double kPingRps = 16.0;

/** Share of --seconds spent in the low phase; the rest is high. */
constexpr double kLowShare = 0.25;

/** Daemon flags besides --jobs kJobs: bounded admission. */
constexpr const char *kMaxQueue = "64";
constexpr size_t kQuota = 16;

constexpr size_t kLoadConnections = 3;
constexpr size_t kProbe = kLoadConnections; //!< probe connection index

/** Validity limits of the open loop. */
constexpr double kMaxLateP99Ms = 5.0;
constexpr size_t kMaxBacklog = 8;

constexpr uint64_t kCheckOneIn = 8;
constexpr size_t kHotSet = 8;

/** Request shapes. */
constexpr uint64_t kSimCtas = 8;              //!< simulate traces
constexpr const char *kTraceStatsCtas = "4";  //!< trace-stats requests
constexpr const char *kWarmTheta = "0.42";    //!< outside kThetas

/** trace-stats names these workloads: the Cactus+MLPerf ones whose
 *  census at 4 CTAs costs 10-70 ms in-process (README.md), so the
 *  heavy class has no request an order of magnitude above the rest. */
const char *const kTraceStatsWorkloads[] = {
    "gru", "gst", "gms", "lmc", "lmr", "rfl", "spt",
    "3d-unet", "bert", "resnet50", "ssd-resnet34"};

/** Simulate traces come from representatives of this estimated size
 *  (warp instructions in the traced CTAs): no tiny or giant ones. */
constexpr uint64_t kSimMinInsts = 8'000;
constexpr uint64_t kSimMaxInsts = 40'000;

enum class Phase : uint8_t { Warm, Low, High };

struct Request
{
    RequestKind kind = RequestKind::Ping;
    std::string payload;
    Phase phase = Phase::Warm;
    size_t conn = 0;      //!< kProbe, or a load connection (routed)
    uint64_t due = 0;     //!< ns; 0 = send at once
    uint64_t sent = 0;    //!< send call started
    uint64_t sentEnd = 0; //!< send call returned
    uint64_t done = 0;    //!< response parsed
    bool ok = false;
    bool keep = false;    //!< keep the response for the later check
    std::string response;
    const std::string *expected = nullptr; //!< check on arrival
};

Request
request(RequestKind kind, std::string payload, Phase phase, size_t conn)
{
    Request q;
    q.kind = kind;
    q.payload = std::move(payload);
    q.phase = phase;
    q.conn = conn;
    return q;
}

bool
isLight(RequestKind k)
{
    return k == RequestKind::Sample || k == RequestKind::Evaluate;
}

std::vector<std::string>
thetas()
{
    std::vector<std::string> out;
    for (int i = 10; i <= 90; i += 5) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "0.%02d", i);
        out.push_back(buf);
    }
    return out;
}

/** Workloads the light requests name: Table I workloads with more
 *  than 32 invocations (35 of the 40). */
std::vector<std::string>
lightWorkloads()
{
    std::vector<std::string> out;
    for (const auto &spec : workloads::allSpecs())
        if (spec.paperInvocations > 32)
            out.push_back(spec.name);
    return out;
}

/** Warp instructions a trace of `inv` will hold (what synthesis
 *  materializes: traced CTAs x warps x instructions per warp). */
uint64_t
tracedInstructions(const trace::KernelInvocation &inv)
{
    uint64_t ctas = std::max<uint64_t>(inv.launch.numCtas(), 1);
    uint64_t warps = std::max<uint64_t>(inv.launch.warpsPerCta(), 1);
    uint64_t per_warp =
        std::max<uint64_t>(inv.mix.instructionCount / (ctas * warps), 4);
    return std::min(ctas, kSimCtas) * warps * per_warp;
}

/**
 * The request payloads of one run, per kind. Which requests exist
 * depends only on how many a run sends, never on the seed, so every
 * seed serves the same work; the seed orders and times it.
 * serve-unique sends each payload once; serve-repeat uses the first
 * kHotSet of each list as its hot set.
 */
struct Payloads
{
    std::map<RequestKind, std::vector<std::string>> byKind;
    std::vector<std::string> warm; //!< evaluate payloads
};

Payloads
buildPayloads(const std::map<RequestKind, size_t> &need)
{
    Payloads p;
    Rng rng("payloads");
    std::vector<std::string> names = lightWorkloads();
    std::vector<std::string> ts = thetas();
    const std::vector<std::string> archs = {"ampere", "turing"};

    auto take = [&](std::vector<std::string> all, RequestKind kind,
                    const char *label) {
        rng.split(label).shuffle(all);
        all.resize(std::min(all.size(), need.at(kind)));
        p.byKind[kind] = std::move(all);
    };
    std::vector<std::string> sample, evaluate, stats;
    for (const std::string &w : names) {
        for (const std::string &t : ts) {
            sample.push_back(serve::encodeFields({w, "sieve", t, "0"}));
            for (const std::string &a : archs)
                evaluate.push_back(
                    serve::encodeFields({w, "sieve", a, t, "0"}));
        }
        for (const std::string &a : archs)
            p.warm.push_back(
                serve::encodeFields({w, "sieve", a, kWarmTheta, "0"}));
    }
    take(sample, RequestKind::Sample, "sample");
    take(evaluate, RequestKind::Evaluate, "evaluate");

    // trace-stats over kTraceStatsWorkloads; simulate over distinct
    // 8-CTA traces of Sieve representatives of the Cactus+MLPerf
    // workloads.
    std::vector<trace::Workload> wls;
    std::vector<std::pair<size_t, size_t>> reps; // (workload, invocation)
    const std::string budget_mb = std::to_string(kTierBudgetBytes >> 20);
    for (const char *w : kTraceStatsWorkloads)
        for (const std::string &t : ts)
            stats.push_back(serve::encodeFields(
                {t, kTraceStatsCtas, budget_mb, "0", w}));
    for (const auto &spec : workloads::challengingSpecs()) {
        wls.push_back(workloads::generateWorkload(spec));
        sampling::SieveSampler sampler({0.4});
        for (const auto &stratum : sampler.sample(wls.back()).strata) {
            uint64_t insts = tracedInstructions(
                wls.back().invocations()[stratum.representative]);
            if (insts >= kSimMinInsts && insts <= kSimMaxInsts)
                reps.push_back({wls.size() - 1, stratum.representative});
        }
    }
    take(stats, RequestKind::TraceStats, "trace-stats");
    rng.split("simulate").shuffle(reps);
    reps.resize(std::min(reps.size(), need.at(RequestKind::Simulate)));
    gpusim::TraceSynthOptions synth;
    synth.maxTracedCtas = kSimCtas;
    for (const auto &[w, inv] : reps) {
        std::ostringstream os;
        trace::writeTrace(gpusim::synthesizeTrace(wls[w], inv, synth), os);
        p.byKind[RequestKind::Simulate].push_back(
            serve::encodeFields({"ampere", "0", os.str()}));
    }
    return p;
}

/** The daemon process: started with fixed flags, stopped by SIGTERM. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon()
    {
        if (_pid > 0) {
            ::kill(_pid, SIGKILL);
            ::waitpid(_pid, nullptr, 0);
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool
    start(const std::string &socket, const std::string &log)
    {
        ::unlink(socket.c_str());
        std::vector<std::string> args = {
            "sieve",  "serve",  "--socket",      socket,
            "--jobs", std::to_string(kJobs), "--max-queue", kMaxQueue,
            "--quota", std::to_string(kQuota)};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int log_fd = ::open(log.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        _pid = ::fork();
        if (_pid == 0) {
            // Die with sieve_e2e, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (log_fd >= 0) {
                ::dup2(log_fd, STDOUT_FILENO);
                ::dup2(log_fd, STDERR_FILENO);
            }
            ::execv(E2E_DAEMON, argv.data());
            ::_exit(127);
        }
        if (log_fd >= 0)
            ::close(log_fd);
        return _pid > 0;
    }

    int pid() const { return _pid; }

    /** SIGTERM and wait for the drain; returns the exit status. */
    int
    stop()
    {
        if (_pid <= 0)
            return -1;
        ::kill(_pid, SIGTERM);
        int status = 0;
        for (int i = 0; i < 3000; ++i) {
            if (::waitpid(_pid, &status, WNOHANG) == _pid) {
                _pid = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(_pid, SIGKILL);
        ::waitpid(_pid, nullptr, 0);
        _pid = -1;
        return -1;
    }

  private:
    pid_t _pid = -1;
};

/** One client connection with its in-order reply queue. */
struct Conn
{
    serve::ServeClient client;
    serve::FrameParser parser{serve::kResponseMagic, "daemon reply"};
    std::deque<size_t> inflight; //!< request indexes, oldest first
};

/**
 * The load generator: sends each request when it is due (or as soon
 * as its connection has fewer than `window` in flight), reads every
 * reply as it arrives, and checks it.
 */
class Generator
{
  public:
    Generator(std::vector<Conn> &conns, std::vector<Request> &reqs,
              RunResult &result)
        : _conns(conns), _reqs(reqs), _result(result)
    {
    }

    void
    run(const std::vector<size_t> &order, size_t window)
    {
        size_t next = 0, outstanding = 0;
        while (next < order.size() || outstanding > 0) {
            uint64_t now = nowNs();
            while (next < order.size() && _reqs[order[next]].due <= now &&
                   _conns[route(_reqs[order[next]])].inflight.size() <
                       window) {
                _reqs[order[next]].conn = route(_reqs[order[next]]);
                if (send(order[next]))
                    ++outstanding;
                ++next;
                now = nowNs();
            }
            std::vector<pollfd> fds;
            std::vector<size_t> which;
            for (size_t c = 0; c < _conns.size(); ++c) {
                if (!_conns[c].inflight.empty()) {
                    fds.push_back({_conns[c].client.fd(), POLLIN, 0});
                    which.push_back(c);
                }
            }
            bool can_send =
                next < order.size() &&
                _conns[route(_reqs[order[next]])].inflight.size() < window;
            uint64_t wait_ns = 100'000'000;
            if (can_send)
                wait_ns = _reqs[order[next]].due > now
                              ? _reqs[order[next]].due - now
                              : 0;
            timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
            int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
            if (ready <= 0)
                continue;
            for (size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                    outstanding -= drain(which[i]);
            }
        }
    }

    /** Most requests one connection had in flight (quota: kQuota). */
    size_t maxInflight() const { return _maxInflight; }

  private:
    /**
     * The connection a request goes out on: the probe's own, or the
     * load connection with the fewest requests in flight, as a
     * client with a small connection pool would pick.
     */
    size_t
    route(const Request &q) const
    {
        if (q.conn == kProbe)
            return kProbe;
        size_t best = 0;
        for (size_t c = 1; c < kLoadConnections; ++c)
            if (_conns[c].inflight.size() < _conns[best].inflight.size())
                best = c;
        return best;
    }

    bool
    send(size_t idx)
    {
        Request &q = _reqs[idx];
        Conn &c = _conns[q.conn];
        q.sent = nowNs();
        Expected<void> st = c.client.sendRequest(q.kind, q.payload);
        q.sentEnd = nowNs();
        ++_result.attempted;
        if (!st.ok()) {
            q.done = q.sentEnd;
            _result.failOp("send: " + st.error().toString());
            return false;
        }
        c.inflight.push_back(idx);
        _maxInflight = std::max(_maxInflight, c.inflight.size());
        return true;
    }

    /** Read what the socket has; returns the replies consumed. */
    size_t
    drain(size_t conn)
    {
        Conn &c = _conns[conn];
        char buf[64 * 1024];
        size_t replies = 0;
        while (true) {
            ssize_t n = ::recv(c.client.fd(), buf, sizeof(buf),
                               MSG_DONTWAIT);
            if (n > 0) {
                c.parser.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (n < 0 && errno == EINTR)
                continue;
            // EOF or a hard error: nothing more will arrive.
            while (!c.inflight.empty()) {
                size_t idx = c.inflight.front();
                c.inflight.pop_front();
                _reqs[idx].done = nowNs();
                _result.failOp("daemon closed the connection");
                ++replies;
            }
            return replies;
        }
        while (!c.inflight.empty()) {
            Expected<std::optional<serve::Frame>> frame = c.parser.next();
            if (!frame.ok()) {
                _result.failOp("reply: " + frame.error().toString());
                break;
            }
            if (!frame.value())
                break;
            size_t idx = c.inflight.front();
            c.inflight.pop_front();
            ++replies;
            onReply(_reqs[idx], std::move(*frame.value()));
        }
        return replies;
    }

    void
    onReply(Request &q, serve::Frame frame)
    {
        q.done = nowNs();
        const char *kind = serve::requestKindName(q.kind);
        if (frame.kind != static_cast<uint16_t>(serve::ResponseStatus::Ok)) {
            Expected<serve::WireError> err =
                serve::decodeError(frame.payload);
            _result.failOp(std::string(kind) + " refused or failed: " +
                           (err.ok() ? err.value().error.toString()
                                     : std::string("undecodable error")));
            return;
        }
        if (q.kind == RequestKind::Ping && frame.payload != q.payload) {
            _result.failOp("ping echo differs");
            return;
        }
        if (q.expected && frame.payload != *q.expected) {
            _result.failOp(std::string(kind) +
                           " reply differs from the in-process runner");
            return;
        }
        q.ok = true;
        if (q.keep)
            q.response = std::move(frame.payload);
    }

    std::vector<Conn> &_conns;
    std::vector<Request> &_reqs;
    RunResult &_result;
    size_t _maxInflight = 0;
};

/** sim.lookups / sim.hits from a stats reply. */
std::pair<double, double>
simCounters(const std::string &stats)
{
    std::istringstream is(stats);
    std::string key;
    double value = 0.0, lookups = 0.0, hits = 0.0;
    while (is >> key >> value) {
        if (key == "sim.lookups")
            lookups = value;
        else if (key == "sim.hits")
            hits = value;
    }
    return {lookups, hits};
}

std::vector<double>
latenciesMs(const std::vector<Request> &reqs, Phase phase,
            const std::function<bool(RequestKind)> &pick)
{
    std::vector<double> out;
    for (const Request &q : reqs) {
        if (q.phase == phase && q.ok && pick(q.kind))
            out.push_back(static_cast<double>(q.done - q.due) / 1e6);
    }
    return out;
}

} // namespace

RunResult
runServe(const Options &opts, bool repeat)
{
    RunResult result;
    fs::create_directories(kWorkDir);
    const std::string socket = std::string(kWorkDir) + "/serve.sock";
    const std::string log = std::string(kWorkDir) + "/serve-daemon.log";
    Rng rng = Rng(opts.seed).split(repeat ? "serve-repeat" : "serve-unique");

    double seconds = opts.smoke ? 3.0 : opts.seconds;
    double low_s = seconds * kLowShare, high_s = seconds - low_s;
    const RequestKind kinds[] = {RequestKind::Sample, RequestKind::Evaluate,
                                 RequestKind::Simulate,
                                 RequestKind::TraceStats};
    const double shares[] = {0.25, 0.45, 0.20, 0.10};

    // How many load requests of each kind the two phases send.
    size_t n_low = static_cast<size_t>(std::llround(kLowRps * low_s));
    size_t n_high = static_cast<size_t>(std::llround(kHighRps * high_s));
    auto kindCounts = [&](size_t n) {
        std::vector<size_t> counts(4);
        size_t used = 0;
        for (size_t k = 1; k < 4; ++k) {
            counts[k] = static_cast<size_t>(
                std::llround(shares[k] * static_cast<double>(n)));
            used += counts[k];
        }
        counts[0] = n - std::min(n, used);
        return counts;
    };
    std::map<RequestKind, size_t> need;
    for (size_t k = 0; k < 4; ++k)
        need[kinds[k]] = repeat ? kHotSet
                                : kindCounts(n_low)[k] + kindCounts(n_high)[k];

    // Set-up, timed as a whole and repeated: prepare the payloads,
    // start the daemon, connect, get the first ping answered, warm it.
    Payloads payloads;
    Daemon daemon;
    std::vector<Conn> conns;
    std::vector<Request> reqs;
    std::vector<std::string> expected; // serve-repeat: per hot payload
    std::map<RequestKind, std::vector<size_t>> expectedAt;
    std::vector<double> setups;
    size_t setup_reps = opts.smoke ? 1 : 3;
    for (size_t rep = 0; rep < setup_reps && result.correct; ++rep) {
        uint64_t t0 = nowNs();
        payloads = buildPayloads(need);
        for (RequestKind k : kinds) {
            if (payloads.byKind[k].size() < need[k]) {
                result.invalidate(
                    std::string("--seconds too long: ") +
                    serve::requestKindName(k) + " has " +
                    std::to_string(payloads.byKind[k].size()) +
                    " distinct payloads, the run needs " +
                    std::to_string(need[k]));
            }
        }
        if (!result.correct)
            break;
        if (repeat && rep == 0) {
            // Ground truth for every hot request, from an in-process
            // runner; not part of the timed set-up of later reps.
            uint64_t oracle0 = nowNs();
            serve::RequestRunner oracle({kJobs});
            for (RequestKind k : kinds) {
                for (const std::string &payload : payloads.byKind[k]) {
                    Expected<std::string> r = oracle.handle(k, payload);
                    expectedAt[k].push_back(expected.size());
                    expected.push_back(r.ok() ? r.value() : "");
                }
            }
            t0 += nowNs() - oracle0;
        }
        if (!daemon.start(socket, log)) {
            result.invalidate("cannot start the daemon");
            break;
        }
        conns.clear();
        for (size_t c = 0; c <= kProbe; ++c) {
            Expected<serve::ServeClient> client =
                serve::ServeClient::connect(socket);
            for (int i = 0; i < 5000 && !client.ok(); ++i) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                client = serve::ServeClient::connect(socket);
            }
            if (!client.ok()) {
                result.invalidate("cannot connect: " +
                                  client.error().toString());
                break;
            }
            conns.push_back({std::move(client).value(),
                             {serve::kResponseMagic, "daemon reply"},
                             {}});
        }
        if (!result.correct)
            break;

        reqs.clear();
        reqs.push_back(request(RequestKind::Ping, "ready", Phase::Warm, kProbe));
        for (size_t i = 0; i < payloads.warm.size(); ++i)
            reqs.push_back(request(RequestKind::Evaluate, payloads.warm[i],
                                   Phase::Warm, 0));
        if (repeat) {
            for (RequestKind k : kinds)
                for (size_t i = 0; i < payloads.byKind[k].size(); ++i)
                    reqs.push_back(
                        request(k, payloads.byKind[k][i], Phase::Warm, 0));
        }
        Generator gen(conns, reqs, result);
        gen.run({0}, 1); // the first ping answered: the daemon is up
        std::vector<size_t> warm;
        for (size_t i = 1; i < reqs.size(); ++i)
            warm.push_back(i);
        gen.run(warm, 4);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        if (rep + 1 < setup_reps) {
            conns.clear();
            if (daemon.stop() != 0)
                result.failOp("daemon did not drain cleanly");
        }
    }
    if (!result.correct) {
        result.add("setup_s", 0.0, "s");
        return result;
    }

    auto statsNow = [&] {
        std::vector<Request> one = {
            request(RequestKind::Stats, "", Phase::Warm, kProbe)};
        one[0].keep = true;
        Generator(conns, one, result).run({0}, 1);
        return simCounters(one[0].response);
    };
    auto [lookups0, hits0] = statsNow();

    // The schedule: exact kind shares per phase in seeded order,
    // seeded uniform arrival instants (a Poisson process given its
    // count), pings evenly spaced with a seeded offset.
    size_t n_warm = reqs.size();
    size_t drawn[4] = {0, 0, 0, 0}; // serve-unique: payloads used so far
    uint64_t base = nowNs() + 20'000'000;
    auto addPhase = [&](Phase phase, double start_s, double dur_s,
                        size_t n) {
        std::vector<size_t> counts = kindCounts(n);
        std::vector<size_t> order;
        for (size_t k = 0; k < 4; ++k)
            order.insert(order.end(), counts[k], k);
        Rng prng = rng.split(phase == Phase::Low ? "low" : "high");
        prng.split("kinds").shuffle(order);
        Rng at = prng.split("arrivals");
        std::vector<double> times(n);
        for (double &t : times)
            t = start_s + at.uniform() * dur_s;
        std::sort(times.begin(), times.end());
        // Which payloads a phase serves never depends on the seed, only
        // their order: serve-unique takes the phase's next slice of
        // each list, serve-repeat passes over the hot set (each hot
        // payload equally often).
        std::vector<std::vector<size_t>> picks(4);
        for (size_t k = 0; k < 4; ++k) {
            Rng shuffle = prng.split("payload-order").split(k);
            while (picks[k].size() < counts[k]) {
                std::vector<size_t> pass;
                for (size_t h = 0; h < (repeat ? kHotSet : counts[k]); ++h)
                    pass.push_back(repeat ? h : drawn[k]++);
                shuffle.shuffle(pass);
                picks[k].insert(picks[k].end(), pass.begin(), pass.end());
            }
        }
        size_t used[4] = {0, 0, 0, 0};
        for (size_t i = 0; i < n; ++i) {
            size_t k = order[i];
            const std::vector<std::string> &pool = payloads.byKind[kinds[k]];
            size_t pick = picks[k][used[k]++];
            Request q = request(kinds[k], pool[pick], phase, 0);
            q.due = base + static_cast<uint64_t>(times[i] * 1e9);
            if (repeat)
                q.expected = &expected[expectedAt[kinds[k]][pick]];
            reqs.push_back(std::move(q));
        }
        size_t pings = static_cast<size_t>(std::llround(kPingRps * dur_s));
        double gap = dur_s / static_cast<double>(std::max<size_t>(pings, 1));
        double offset = prng.split("ping").uniform() * gap;
        for (size_t i = 0; i < pings; ++i) {
            Request q = request(RequestKind::Ping,
                                "probe-" + std::to_string(reqs.size()),
                                phase, kProbe);
            q.due = base + static_cast<uint64_t>(
                               (start_s + offset + gap * static_cast<double>(i)) *
                               1e9);
            reqs.push_back(std::move(q));
        }
    };
    addPhase(Phase::Low, 0.0, low_s, n_low);
    addPhase(Phase::High, low_s, high_s, n_high);
    Rng check = rng.split("check");
    for (size_t i = n_warm; i < reqs.size(); ++i) {
        reqs[i].keep = !repeat && reqs[i].kind != RequestKind::Ping &&
                       check.split(i).next() % kCheckOneIn == 0;
    }
    std::vector<size_t> order;
    for (size_t i = n_warm; i < reqs.size(); ++i)
        order.push_back(i);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return reqs[a].due < reqs[b].due;
    });

    double cpu0 = cpuSeconds(daemon.pid());
    Generator load(conns, reqs, result);
    load.run(order, SIZE_MAX);
    double cpu = cpuSeconds(daemon.pid()) - cpu0;
    auto [lookups1, hits1] = statsNow();
    double rss = peakRssMb(daemon.pid());
    conns.clear();
    if (daemon.stop() != 0)
        result.failOp("daemon did not drain cleanly");

    // The measured window runs from the first due instant to the
    // last reply; the backlog is what was sent and not yet answered
    // when the high phase's schedule ended.
    uint64_t high_end_due = base + static_cast<uint64_t>(seconds * 1e9);
    uint64_t last_reply = base;
    size_t backlog = 0, load_ops = 0;
    std::vector<double> late_ms;
    for (size_t i = n_warm; i < reqs.size(); ++i) {
        const Request &q = reqs[i];
        late_ms.push_back(static_cast<double>(q.sent - q.due) / 1e6);
        last_reply = std::max(last_reply, q.done);
        if (q.kind != RequestKind::Ping)
            ++load_ops;
        if (q.sent <= high_end_due && q.done > high_end_due)
            ++backlog;
    }
    double window = static_cast<double>(last_reply - base) / 1e9;

    // Latency summaries per class.
    auto light = [](RequestKind k) { return isLight(k); };
    auto heavy = [](RequestKind k) {
        return k == RequestKind::Simulate || k == RequestKind::TraceStats;
    };
    auto ping = [](RequestKind k) { return k == RequestKind::Ping; };
    Quantile late = nearestRank(late_ms, 0.99);
    std::printf("open loop: low %.0f rps x %.1f s, high %.0f rps x %.1f s, "
                "probe %.0f pings/s; generator late p99 %.3f ms (%s); "
                "backlog at end of high %zu; most in flight on one "
                "connection %zu (quota %zu)\n",
                kLowRps, low_s, kHighRps, high_s, kPingRps, late.value,
                late.note().c_str(), backlog, load.maxInflight(), kQuota);
    struct Shown
    {
        const char *name;
        Phase phase;
        bool (*pick)(RequestKind);
        double q;
    };
    const Shown shown[] = {
        {"ping.p99_ms", Phase::High, ping, 0.99},
        {"ping.p95_ms", Phase::High, ping, 0.95},
        {"light.p50_ms", Phase::High, light, 0.5},
        {"light.p95_ms", Phase::High, light, 0.95},
        {"heavy.p50_ms", Phase::High, heavy, 0.5},
        {"heavy.p90_ms", Phase::High, heavy, 0.9},
        {"light.p50_ms.low", Phase::Low, light, 0.5},
        {"heavy.p50_ms.low", Phase::Low, heavy, 0.5},
    };
    for (const Shown &s : shown) {
        Quantile v = nearestRank(latenciesMs(reqs, s.phase, s.pick), s.q);
        printMetric({s.name, v.value, "ms"},
                    v.note() + (v.supported() ? "" : ", UNSUPPORTED"));
    }
    double lookups = lookups1 - lookups0, hits = hits1 - hits0;
    std::printf("sim cache: %.0f hits / %.0f lookups\n", hits, lookups);

    if (!opts.smoke) {
        if (late.value > kMaxLateP99Ms)
            result.invalidate("INVALID run: generator lateness p99 above "
                              "5 ms");
        if (backlog > kMaxBacklog)
            result.invalidate("INVALID run: backlog above 8 at the end "
                              "of the high phase");
    }

    // The in-process runner: serve-unique's seeded subset is checked
    // here, and a traced run also times its handler per kind.
    std::map<RequestKind, std::vector<double>> handler_ms;
    {
        serve::RequestRunner oracle({kJobs});
        std::vector<const Request *> subject;
        if (opts.trace) {
            // Resident state as the daemon had it: every warm-up
            // request (contexts, and serve-repeat's hot set) answered
            // once. serve-repeat then times a second pass over its
            // hot set, and every run times a share of the pings.
            for (size_t i = 1; i < n_warm; ++i)
                (void)oracle.handle(reqs[i].kind, reqs[i].payload);
            for (size_t i = 1 + payloads.warm.size(); i < n_warm; ++i)
                subject.push_back(&reqs[i]);
        }
        for (size_t i = n_warm; i < reqs.size(); ++i) {
            bool timed_ping = opts.trace &&
                              reqs[i].kind == RequestKind::Ping &&
                              i % kCheckOneIn == 0;
            if (reqs[i].keep || timed_ping)
                subject.push_back(&reqs[i]);
        }
        for (const Request *q : subject) {
            setCurrentRequest(static_cast<uint64_t>(q - reqs.data()));
            tracer().setEnabled(opts.trace);
            uint64_t t0 = nowNs();
            Expected<std::string> r = layer("serve.handle", [&] {
                return oracle.handle(q->kind, q->payload);
            });
            double ms = static_cast<double>(nowNs() - t0) / 1e6;
            tracer().setEnabled(false);
            handler_ms[q->kind].push_back(ms);
            if (q->keep && q->ok && (!r.ok() || r.value() != q->response))
                result.failOp(std::string(serve::requestKindName(q->kind)) +
                              " reply differs from the in-process runner");
        }
    }

    if (!opts.trace) {
        // The gated median and tail are the heavy requests'. A median
        // over the whole mix falls in the gap between light (~1 ms)
        // and heavy (10-40 ms) requests, and the light median itself
        // sits on a gap between sub-millisecond and larger workloads;
        // both jump across their gap from run to run (README.md).
        Spread setup = spreadOf(setups);
        std::vector<double> heavy_ms = latenciesMs(reqs, Phase::High, heavy);
        Quantile p50 = nearestRank(heavy_ms, 0.5);
        Quantile p90 = nearestRank(heavy_ms, 0.9);
        if (!p90.supported() && !opts.smoke)
            result.invalidate("p90 has fewer than 10 samples beyond it (" +
                              p90.note() + ")");
        result.add("setup_s", setup.median, "s");
        printMetric(result.metrics.back(), setup.note());
        result.add("p50_ms", p50.value, "ms");
        printMetric(result.metrics.back(),
                    p50.note() + ", heavy requests, high phase");
        result.add("p90_ms", p90.value, "ms");
        printMetric(result.metrics.back(),
                    p90.note() + ", heavy requests, high phase");
        result.add("cpu_ms_per_op",
                   cpu * 1e3 / static_cast<double>(std::max<size_t>(load_ops, 1)),
                   "ms");
        printMetric(result.metrics.back(),
                    "daemon CPU over n=" + std::to_string(load_ops) +
                        " load requests, both phases");
        result.add("peak_rss_mb", rss, "MiB");
        printMetric(result.metrics.back(), "VmHWM of the daemon");
        return result;
    }

    // Traced: spans of every served request, assembled from the
    // timestamps above (the generator takes them in untraced runs
    // too, so tracing adds no work to the timed phases).
    for (size_t i = n_warm; i < reqs.size(); ++i) {
        const Request &q = reqs[i];
        int64_t root =
            tracer().record({"serve.request", q.due, q.done, -1, i, 0});
        tracer().record({"serve.send", q.sent, q.sentEnd, root, i, 0});
        tracer().record({"serve.reply", q.sentEnd, q.done, root, i, 0});
    }
    // Inside the daemon nothing is wrapped, so its CPU time is all
    // unattributed; the rest of jobs x wall is idle.
    double busy = 100.0 * cpu / (static_cast<double>(kJobs) * window);
    result.add("unattributed_pct", busy, "%");
    printMetric(result.metrics.back(),
                "daemon CPU as a share of jobs x wall");
    result.add("pool.idle_pct", 100.0 - busy, "%");
    printMetric(result.metrics.back(), "the rest of jobs x wall");
    result.add("wall_s", window, "s");
    printMetric(result.metrics.back(),
                "both phases, first due to last reply");
    result.add("trace.overhead_pct", 0.0, "%");
    printMetric(result.metrics.back(), "spans assembled after the phases");
    for (RequestKind k : {RequestKind::Ping, RequestKind::Sample,
                          RequestKind::Evaluate, RequestKind::Simulate,
                          RequestKind::TraceStats}) {
        Quantile served = nearestRank(
            latenciesMs(reqs, Phase::High,
                        [k](RequestKind kind) { return kind == k; }),
            0.5);
        Quantile handler = nearestRank(handler_ms[k], 0.5);
        std::string name =
            std::string("serve.wait_pct.") + serve::requestKindName(k);
        result.add(name,
                   served.value > 0
                       ? 100.0 * (served.value - handler.value) / served.value
                       : 0.0,
                   "%");
        printMetric(result.metrics.back(),
                    "served p50 " + std::to_string(served.value) +
                        " ms (" + served.note() + "), handler p50 " +
                        std::to_string(handler.value) + " ms (" +
                        handler.note() + ")");
    }
    result.add("serve.sim_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
               "ratio");
    printMetric(result.metrics.back(),
                "of " + std::to_string(static_cast<long>(lookups)) +
                    " lookups, both phases");
    result.add("serve.sim_lookups", lookups, "count");
    result.add("serve.requests", static_cast<double>(order.size()), "count");
    return result;
}

} // namespace e2e
