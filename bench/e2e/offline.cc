/**
 * @file
 * The two offline workloads: offline-paper (the `sieve evaluate`
 * product path over the 16 Cactus+MLPerf workloads at their Table I
 * invocation counts) and repsim (the Section V-G endgame: trace
 * export of the representatives, re-read, cycle-level simulation,
 * prediction from the simulated representatives).
 *
 * Both run in rounds. A round submits one task per workload to a
 * kJobs-worker ThreadPool and waits for all of them. Every
 * operation's output is compared byte for byte with the pinned texts
 * under bench/e2e/expected/.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <mutex>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "e2e.hh"
#include "eval/render.hh"
#include "gpu/hardware_executor.hh"
#include "gpusim/gpu_simulator.hh"
#include "sampling/evaluation.hh"
#include "sampling/rep_traces.hh"
#include "sampling/sieve.hh"
#include "stats.hh"
#include "trace/columnar.hh"
#include "trace/sass_trace.hh"
#include "trace/workload_io.hh"
#include "tracer.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

namespace fs = std::filesystem;
using namespace sieve;

namespace e2e {

namespace {

/** Sieve's default CoV threshold, as `sieve evaluate` uses it. */
constexpr double kTheta = 0.4;

/** The CLI default CTA count of `sieve trace`. */
constexpr uint64_t kReprCtas = 32;

/** Names of the root spans: their self time is unattributed. */
constexpr const char *kOfflineTask = "offline.file";
constexpr const char *kRepsimTask = "repsim.workload";

double
msSince(uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

/**
 * Rounds, checks and measurements shared by the two offline
 * workloads. Worker tasks report through the mutex-guarded members.
 */
class RoundRunner
{
  public:
    explicit RoundRunner(const Options &opts)
        : _opts(opts), _pool(kJobs)
    {
    }

    /**
     * Run fn(i) for i in `order` on the pool and wait. The calling
     * thread only waits, so exactly kJobs threads do the work.
     */
    void
    fanOut(const std::vector<size_t> &order, uint64_t request_base,
           const std::function<void(size_t)> &fn)
    {
        std::latch done(static_cast<ptrdiff_t>(order.size()));
        for (size_t i : order) {
            _pool.submit([&, i] {
                setCurrentRequest(request_base + i);
                try {
                    fn(i);
                } catch (const std::exception &e) {
                    failOp(std::string("task threw: ") + e.what());
                } catch (...) {
                    failOp("task threw a non-standard exception");
                }
                done.count_down();
            });
        }
        done.wait();
    }

    /**
     * Time `reps` full preparations of the inputs (n tasks each).
     * Files written are flushed between reps, untimed, so every rep
     * starts from the same page-cache state.
     */
    std::vector<double>
    timeSetups(size_t reps, size_t n,
               const std::function<void(size_t)> &prepare)
    {
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        std::vector<double> out;
        for (size_t r = 0; r < reps; ++r) {
            uint64_t t0 = nowNs();
            fanOut(order, 0, prepare);
            out.push_back(static_cast<double>(nowNs() - t0) / 1e9);
            flushWorkDir();
        }
        return out;
    }

    void
    flushWorkDir() const
    {
        int fd = ::open(kWorkDir, O_RDONLY | O_DIRECTORY);
        if (fd >= 0) {
            ::syncfs(fd);
            ::close(fd);
        }
    }

    /**
     * One round: a task per input. The kJobs largest inputs start
     * first, so the longest task never starts last and the same two
     * inputs share the machine in every round (peak memory is theirs);
     * the rest follow in a seeded order. In a traced run the rounds
     * alternate traced and untraced, so the op latencies of the
     * untraced rounds price the tracing.
     */
    void
    round(const std::vector<double> &sizes,
          const std::function<void(size_t)> &task)
    {
        size_t index = _walls.size();
        bool traced = _opts.trace && index % 2 == 0;
        std::vector<size_t> order(sizes.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) { return sizes[a] > sizes[b]; });
        size_t fixed = std::min(kJobs, order.size());
        std::vector<size_t> rest(order.begin() + fixed, order.end());
        Rng(_opts.seed).split("round").split(index).shuffle(rest);
        std::copy(rest.begin(), rest.end(), order.begin() + fixed);

        {
            std::lock_guard<std::mutex> lock(_mu);
            _roundOpsMs.emplace_back();
            _roundTraced.push_back(traced);
        }
        tracer().setEnabled(traced);
        size_t first_span = tracer().size();
        uint64_t t0 = nowNs();
        fanOut(order, index * 1000, task);
        double wall = static_cast<double>(nowNs() - t0) / 1e9;
        tracer().setEnabled(false);

        _walls.push_back(wall);
        if (traced) {
            _tracedWall += wall;
            ++_tracedRounds;
            SelfTimes st =
                selfTimes(tracer().since(first_span), first_span);
            for (const auto &[name, secs] : st.selfSeconds)
                _layerSeconds[name] += secs;
            _idleSeconds +=
                static_cast<double>(kJobs) * wall - st.rootSeconds;
        }
    }

    /** Keep going while another round still fits in --seconds. */
    bool
    wantAnotherRound(uint64_t start_ns, size_t min_rounds) const
    {
        size_t rounds = _walls.size();
        if (_opts.smoke)
            return rounds < (_opts.trace ? 2u : 1u);
        double elapsed = static_cast<double>(nowNs() - start_ns) / 1e9;
        double per_round = elapsed / static_cast<double>(rounds);
        return rounds < min_rounds ||
               elapsed + per_round <= _opts.seconds;
    }

    /** Record one operation's latency (product path only). */
    void
    recordOp(double ms)
    {
        std::lock_guard<std::mutex> lock(_mu);
        ++_result.attempted;
        _roundOpsMs.back().push_back(ms);
    }

    /** Add an operation that has no latency of its own. */
    void
    countOp()
    {
        std::lock_guard<std::mutex> lock(_mu);
        ++_result.attempted;
    }

    void
    failOp(const std::string &why)
    {
        std::lock_guard<std::mutex> lock(_mu);
        _result.failOp(why);
    }

    /** Compare with the pinned text; a mismatch fails the op. */
    void
    check(const std::string &name, const std::string &actual)
    {
        bool same = layer("bench.check", [&] {
            return checkExpected(_opts, name, actual);
        });
        if (!same)
            failOp("output differs from expected/" + name);
    }

    /** Self seconds of one layer summed over the traced rounds. */
    double
    layerSeconds(const std::string &name) const
    {
        auto it = _layerSeconds.find(name);
        return it == _layerSeconds.end() ? 0.0 : it->second;
    }

    size_t rounds() const { return _walls.size(); }
    size_t tracedRounds() const { return _tracedRounds; }

    /**
     * The end-to-end metrics of an untraced run, or the per-layer
     * breakdown of a traced one: each layer's self time as a share
     * of jobs x wall over the traced rounds, so that the layers,
     * the unattributed task time and pool idle sum to 100%.
     */
    RunResult
    finish(const std::vector<double> &setups, double cpu_seconds,
           const std::vector<Metric> &per_round_counts)
    {
        RunResult &r = _result;
        Spread wall = spreadOf(_walls);
        printMetric({"round_wall_s", wall.median, "s"}, wall.note());
        // A round runs every input once, so the ops of all rounds
        // form one tight cluster per input. The median of all ops
        // would sit on the edge between two clusters and pick an
        // extreme; the median of the per-round medians does not.
        std::vector<double> ops, medians, traced_medians;
        for (size_t i = 0; i < _roundOpsMs.size(); ++i) {
            double median = spreadOf(_roundOpsMs[i]).median;
            if (_roundTraced[i]) {
                traced_medians.push_back(median);
            } else {
                medians.push_back(median);
                ops.insert(ops.end(), _roundOpsMs[i].begin(),
                           _roundOpsMs[i].end());
            }
        }
        Spread p50 = spreadOf(medians);
        if (!_opts.trace) {
            Spread setup = spreadOf(setups);
            Quantile p90 = nearestRank(ops, 0.9);
            if (!p90.supported() && !_opts.smoke)
                r.invalidate("p90 has fewer than 10 samples beyond "
                             "it (" + p90.note() + ")");
            r.add("setup_s", setup.median, "s");
            printMetric(r.metrics.back(), setup.note());
            r.add("p50_ms", p50.median, "ms");
            printMetric(r.metrics.back(),
                        "per-round medians of n=" +
                            std::to_string(ops.size()) + " ops, " +
                            p50.note());
            r.add("p90_ms", p90.value, "ms");
            printMetric(r.metrics.back(), p90.note());
            r.add("cpu_ms_per_op",
                  cpu_seconds * 1e3 / static_cast<double>(ops.size()),
                  "ms");
            printMetric(r.metrics.back(),
                        "process CPU over n=" + std::to_string(ops.size()) +
                            " ops");
            r.add("peak_rss_mb", peakRssMb(0), "MiB");
            printMetric(r.metrics.back(), "VmHWM of sieve_e2e");
            return r;
        }

        double rounds = static_cast<double>(_tracedRounds);
        double capacity = static_cast<double>(kJobs) * _tracedWall;
        double unattributed = 0.0;
        for (const auto &[name, secs] : _layerSeconds) {
            if (name == kOfflineTask || name == kRepsimTask) {
                unattributed += secs;
                continue;
            }
            r.add(name + "_pct", 100.0 * secs / capacity, "%");
            printMetric(r.metrics.back(),
                        std::to_string(secs / rounds) +
                            " s self per round");
        }
        r.add("unattributed_pct", 100.0 * unattributed / capacity, "%");
        printMetric(r.metrics.back(),
                    std::to_string(unattributed / rounds) +
                        " s task self time per round");
        r.add("pool.idle_pct", 100.0 * _idleSeconds / capacity, "%");
        printMetric(r.metrics.back(),
                    std::to_string(_idleSeconds / rounds) +
                        " s idle per round");
        std::printf("coverage: layers + idle = %.2f%% of jobs x wall "
                    "over %zu traced rounds\n",
                    100.0 * (1.0 - unattributed / capacity),
                    _tracedRounds);
        r.add("wall_s", _tracedWall / rounds, "s");
        printMetric(r.metrics.back(), "mean traced round");
        Spread on = spreadOf(traced_medians);
        r.add("trace.overhead_pct",
              p50.median > 0 ? 100.0 * (on.median / p50.median - 1.0)
                             : 0.0,
              "%");
        printMetric(r.metrics.back(),
                    "op p50 of traced rounds (" + on.note() +
                        ") vs untraced (" + p50.note() + ")");
        for (const Metric &m : per_round_counts) {
            r.metrics.push_back(m);
            printMetric(m, "per round");
        }
        return r;
    }

  private:
    const Options &_opts;
    ThreadPool _pool;
    std::mutex _mu; //!< guards _result and the op samples
    RunResult _result;
    std::vector<std::vector<double>> _roundOpsMs; //!< per round
    std::vector<bool> _roundTraced;
    std::vector<double> _walls;
    std::map<std::string, double> _layerSeconds;
    double _idleSeconds = 0.0;
    double _tracedWall = 0.0;
    size_t _tracedRounds = 0;
};

} // namespace

RunResult
runOfflinePaper(const Options &opts)
{
    // Full Table I invocation counts: no cap.
    std::vector<workloads::WorkloadSpec> specs =
        workloads::challengingSpecs(std::numeric_limits<size_t>::max());
    if (opts.smoke)
        specs.resize(8); // the Cactus half
    fs::path dir = fs::path(kWorkDir) / "offline-paper";
    fs::create_directories(dir);
    auto swlPath = [&](size_t i) {
        return (dir / (specs[i].name + ".swl")).string();
    };

    RoundRunner rr(opts);

    // Set-up: generate every workload and export it as a .swl file,
    // which is what `sieve export` does.
    std::vector<double> setups = rr.timeSetups(
        opts.smoke ? 1 : 3, specs.size(), [&](size_t i) {
            trace::Workload wl = workloads::generateWorkload(specs[i]);
            trace::saveWorkloadFile(wl, swlPath(i));
        });

    std::mutex count_mu; // guards the four per-round totals below
    std::vector<double> errors(specs.size(), 0.0);
    double invocations = 0.0, strata = 0.0, swl_bytes = 0.0;
    for (size_t i = 0; i < specs.size(); ++i)
        swl_bytes += static_cast<double>(fs::file_size(swlPath(i)));

    std::vector<double> sizes;
    for (const auto &spec : specs)
        sizes.push_back(static_cast<double>(spec.generatedInvocations));
    double cpu0 = cpuSeconds(0);
    uint64_t start = nowNs();
    do {
        rr.round(sizes, [&](size_t i) {
            Scope task(kOfflineTask);
            // `sieve evaluate <file.swl>`, call by call.
            uint64_t t0 = nowNs();
            Expected<trace::Workload> wl = layer("trace.load", [&] {
                return trace::tryLoadWorkloadFile(swlPath(i));
            });
            if (!wl.ok()) {
                rr.failOp(wl.error().toString());
                return;
            }
            gpu::HardwareExecutor hw(gpu::ArchConfig::ampereRtx3080());
            gpu::WorkloadResult gold = layer("gpu.golden", [&] {
                return hw.runWorkload(wl.value());
            });
            sampling::SieveSampler sampler({kTheta});
            sampling::SamplingResult result = layer(
                "sampling.sample",
                [&] { return sampler.sample(wl.value()); });
            double predicted = layer("sampling.predict", [&] {
                return sampler.predictCycles(result, wl.value(),
                                             gold.perInvocation);
            });
            sampling::MethodEvaluation ev =
                layer("sampling.evaluate", [&] {
                    return sampling::evaluate(result, predicted,
                                              gold.perInvocation);
                });
            std::string text = layer("eval.render", [&] {
                return eval::evaluationReport("sieve",
                                              wl.value().suite(),
                                              wl.value().name(), ev)
                    .toString();
            });
            rr.recordOp(msSince(t0));
            rr.check("offline-paper/" + specs[i].name + ".txt", text);
            std::lock_guard<std::mutex> lock(count_mu);
            errors[i] = ev.error;
            invocations += static_cast<double>(wl.value().numInvocations());
            strata += static_cast<double>(result.strata.size());
        });
    } while (rr.wantAnotherRound(start, 7));
    double cpu = cpuSeconds(0) - cpu0;

    double sum = 0.0, worst = 0.0;
    for (double e : errors) {
        sum += e;
        worst = std::max(worst, e);
    }
    std::printf("accuracy: error avg %.2f%% max %.2f%% over %zu "
                "workloads (pinned in expected/)\n",
                100.0 * sum / static_cast<double>(errors.size()),
                100.0 * worst, errors.size());

    double rounds = static_cast<double>(rr.rounds());
    RunResult r = rr.finish(setups, cpu,
                            {{"invocations", invocations / rounds, "count"},
                             {"strata", strata / rounds, "count"},
                             {"swl_mb", swl_bytes / 1e6, "MB"}});
    fs::remove_all(dir);
    return r;
}

RunResult
runRepsim(const Options &opts)
{
    std::vector<std::string> names = {"gru",  "gst",      "gms",
                                      "bert", "resnet50", "3d-unet"};
    if (opts.smoke)
        names = {"gru", "bert"};
    std::vector<workloads::WorkloadSpec> specs;
    for (const std::string &name : names)
        specs.push_back(*workloads::findSpec(name));
    fs::path dir = fs::path(kWorkDir) / "repsim";
    fs::create_directories(dir);

    RoundRunner rr(opts);

    // Set-up: generate the workloads (the product's only input).
    std::vector<trace::Workload> wls(specs.size());
    std::vector<double> setups = rr.timeSetups(
        opts.smoke ? 1 : 15, specs.size(), [&](size_t i) {
            wls[i] = workloads::generateWorkload(specs[i]);
        });

    gpusim::GpuSimConfig sim_cfg;
    sim_cfg.engine = gpusim::SimEngine::EventDriven;
    gpusim::GpuSimulator sim(gpu::ArchConfig::ampereRtx3080(), sim_cfg);
    gpusim::TraceSynthOptions synth;
    synth.maxTracedCtas = kReprCtas;
    trace::TierConfig tier;
    tier.budgetBytes = kTierBudgetBytes;

    std::mutex count_mu; // guards the three per-round totals below
    double bytes_written = 0.0, warp_insts = 0.0, waves = 0.0;
    double cpu0 = cpuSeconds(0);
    uint64_t start = nowNs();
    std::vector<double> sizes;
    for (const trace::Workload &wl : wls)
        sizes.push_back(static_cast<double>(wl.totalInstructions()));
    do {
        rr.round(sizes, [&](size_t w) {
            Scope task(kRepsimTask);
            const trace::Workload &wl = wls[w];
            // `sieve trace` then `sieve simulate` of every exported
            // representative, then the Sieve projection.
            sampling::SieveSampler sampler({kTheta});
            sampling::SamplingResult result = layer(
                "sampling.sample", [&] { return sampler.sample(wl); });
            sampling::RepresentativeTraces reps =
                layer("gpusim.synth", [&] {
                    return sampling::RepresentativeTraces(wl, result,
                                                          synth, tier);
                });
            std::vector<gpu::KernelResult> rep_results;
            for (size_t s = 0; s < reps.size(); ++s) {
                std::string stem =
                    wl.name() + "_inv" +
                    std::to_string(result.strata[s].representative);
                std::string path = (dir / (stem + ".trace")).string();
                uint64_t t0 = nowNs();
                trace::KernelTrace kt = layer("trace.to_aos", [&] {
                    trace::TraceHandle::Pin pin = reps.handle(s).pin();
                    return trace::toAos(*pin);
                });
                layer("trace.write",
                      [&] { trace::writeTraceFile(kt, path); });
                Expected<trace::KernelTrace> back =
                    layer("trace.parse",
                          [&] { return trace::tryReadTraceFile(path); });
                if (!back.ok()) {
                    rr.failOp(back.error().toString());
                    return;
                }
                gpusim::KernelSimResult sr =
                    layer("gpusim.simulate",
                          [&] { return sim.simulate(back.value()); });
                std::string text = layer("eval.render", [&] {
                    return eval::simulationReport(back.value(), sr)
                        .toString();
                });
                rr.recordOp(msSince(t0));
                rr.check("repsim/" + stem + ".txt", text);
                gpu::KernelResult kr;
                kr.cycles = sr.estimatedKernelCycles;
                kr.ipc = sr.estimatedIpc;
                rep_results.push_back(kr);
                std::lock_guard<std::mutex> lock(count_mu);
                bytes_written += static_cast<double>(fs::file_size(path));
                warp_insts += static_cast<double>(sr.instructionsSimulated);
                waves += static_cast<double>(sr.wavesSimulated);
            }
            double predicted = layer("sampling.predict", [&] {
                return sampler.predictCyclesFromReps(
                    result, wl.totalInstructions(), rep_results);
            });
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g\n", predicted);
            rr.countOp();
            rr.check("repsim/" + wl.name() + "_predicted.txt", buf);
        });
    } while (rr.wantAnotherRound(start, 2));
    double cpu = cpuSeconds(0) - cpu0;

    double rounds = static_cast<double>(rr.rounds());
    std::vector<Metric> counts = {
        {"trace.mb_written", bytes_written / 1e6 / rounds, "MB"},
        {"gpusim.warp_insts", warp_insts / rounds, "count"},
        {"gpusim.waves", waves / rounds, "count"}};
    if (opts.trace) {
        // Simulator throughput over its own self time.
        double sim_seconds = rr.layerSeconds("gpusim.simulate");
        double traced_insts =
            warp_insts / rounds * static_cast<double>(rr.tracedRounds());
        counts.push_back({"gpusim.minst_per_s",
                          sim_seconds > 0
                              ? traced_insts / sim_seconds / 1e6
                              : 0.0,
                          "Minst/s"});
    }
    RunResult r = rr.finish(setups, cpu, counts);
    fs::remove_all(dir);
    return r;
}

} // namespace e2e
