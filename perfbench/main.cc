/**
 * @file
 * perfbench: the repository benchmark runner (see README.md here).
 *
 * It calls the cedar library's public API and nothing else, times
 * every call from outside, reads the counters RunResult and
 * StudyReport already expose, checks every output, and prints every
 * metric by name with its unit. The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"} — end-to-end
 * metrics in untraced mode (--trace 0), per-layer metrics in traced
 * mode (--trace 1).
 *
 *   perfbench --workload paper_sweep|study_grid|observed_run
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--out DIR] [--reference FILE] [--record]
 *             [--commit ID]
 *
 * Exit status: 0 when every check passed, 1 when any failed (the
 * result line is still printed), 2 on a usage error or a build that
 * must not be timed.
 */

#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/perfect.hh"
#include "bench_json.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/study.hh"
#include "core/summarize.hh"
#include "digest.hh"
#include "harness.hh"
#include "hostspeed.hh"
#include "obs/chrome_trace.hh"
#include "spans.hh"
#include "stats.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace fs = std::filesystem;
namespace core = cedar::core;
namespace apps = cedar::apps;
namespace hw = cedar::hw;
namespace obs = cedar::obs;
using namespace perfbench;

namespace
{

// ---------------------------------------------------------------
// Metric registry: every metric the runner prints, with its unit.
// BENCHMARK.json lists the same names; run.py checks they agree.
// ---------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

const std::vector<MetricDef> &
metricDefs()
{
    static const std::vector<MetricDef> defs = {
        {"wall_norm_s", "s", true},
        {"hard_points_norm_s", "s", true},
        {"light_points_norm_s", "s", true},
        {"cold_points_per_norm_s", "1/s", true},
        {"speedup_err_pct", "%", true},
        {"peak_rss_mb", "MB", true},
        {"setup_s", "s", true},

        {"fail_rate", "ratio", false},
        {"sim.events", "count", false},
        {"sim.events_per_s.hard", "1/s", false},
        {"sim.events_per_s.light", "1/s", false},
        {"sim.host_ns_per_event.hard", "ns", false},
        {"sim.host_ns_per_event.light", "ns", false},
        {"sim.peak_pending", "count", false},
        {"net.fastpath_hits.hard", "count", false},
        {"net.fastpath_hits.light", "count", false},
        {"net.fastpath_misses.hard", "count", false},
        {"net.fastpath_misses.light", "count", false},
        {"net.fastpath_patterns.hard", "count", false},
        {"net.fastpath_patterns.light", "count", false},
        {"net.fastpath_hit_rate.hard", "ratio", false},
        {"net.fastpath_attempts.hard", "count", false},
        {"net.global_words", "count", false},
        {"net.resource_wait_ticks", "ticks", false},
        {"mem.module_requests", "count", false},
        {"mem.module_wait_ticks", "ticks", false},
        {"hw.ce_queue_stall_ticks", "ticks", false},
        {"os.ctx_switches", "count", false},
        {"os.page_faults", "count", false},
        {"rtl.bodies_executed", "count", false},
        {"rtl.loops_posted", "count", false},
        {"apps.model_build_s", "s", false},
        {"core.run_experiment_s.hard", "s", false},
        {"core.run_experiment_s.light", "s", false},
        {"core.study_cold_s", "s", false},
        {"core.study_cached_s", "s", false},
        {"core.cached_points_per_s", "1/s", false},
        {"core.study_cache_hit_rate", "ratio", false},
        {"core.cold_point_ms_p50", "ms", false},
        {"core.cold_point_ms_p90", "ms", false},
        {"core.cold_point_samples", "count", false},
        {"core.summarize_build_s", "s", false},
        {"core.summarize_write_s", "s", false},
        {"core.report_build_s", "s", false},
        {"obs.timeline_events", "count", false},
        {"obs.ts_windows", "count", false},
        {"obs.host_ns_per_timeline_event", "ns", false},
        {"obs.metrics_json_s", "s", false},
        {"obs.span_export_s", "s", false},
        {"obs.span_export_bytes", "B", false},
        {"perfbench.self_s", "s", false},
        {"apps.self_s", "s", false},
        {"core.self_s", "s", false},
        {"obs.self_s", "s", false},
        {"perfbench.trace_overhead_pct", "%", false},
        {"perfbench.wall_s", "s", false},
        {"perfbench.host_speed", "ratio", false},
    };
    return defs;
}

/** One pass's measurements, by metric name. */
using Values = std::map<std::string, double>;

// ---------------------------------------------------------------
// Run context: options, the probe, the checks and the references.
// ---------------------------------------------------------------

/** Digests of published results recorded at this commit. */
class Reference
{
  public:
    void
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read reference " + path);
        std::string key, digest;
        while (in >> key >> digest)
            known_[key] = digest;
    }

    /** Compare (or, when recording, remember) one digest. */
    bool
    check(const std::string &key, const std::string &digest,
          std::string &why)
    {
        if (recording_) {
            known_[key] = digest;
            return true;
        }
        auto it = known_.find(key);
        if (it == known_.end()) {
            why = "no reference digest recorded for " + key;
            return false;
        }
        if (it->second != digest) {
            why = key + ": digest " + digest + " != reference " +
                  it->second;
            return false;
        }
        return true;
    }

    void setRecording(bool on) { recording_ = on; }

    void
    save(const std::string &path) const
    {
        core::atomicWriteFile(path, [this](std::ostream &os) {
            for (const auto &[k, d] : known_)
                os << k << " " << d << "\n";
        });
    }

  private:
    bool recording_ = false;
    std::map<std::string, std::string> known_;
};

/** Operations attempted and failed, with the first few reasons. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Count one operation; it failed when @p why is non-empty. */
    void
    op(const std::string &why)
    {
        ++attempted;
        if (!why.empty()) {
            ++failed;
            if (errors.size() < 20)
                errors.push_back(why);
        }
    }
};

struct Ctx
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned inputSeed = 1;
    double seconds = 30;
    bool trace = false;
    bool record = false;
    fs::path outDir = ".bench_out";
    std::string referencePath = "perfbench/reference.txt";
    std::string commit = "unknown";
    Probe probe{false};
    Checks checks;
    Reference ref;
    HostSpeed host;
    int pinnedCpu = -1; //!< CPU the run is held on, -1 for none

    /** Run the host-speed kernel inside a span, so the trace shows
     *  it; returns the factor for the host time measured since the
     *  previous sample (hostspeed.hh). */
    double
    sampleHost()
    {
        auto s = probe.scope("host_speed", "perfbench");
        host.sample();
        return host.factor();
    }
};

/** Number of distinct input sets; --seed selects one of them. */
constexpr unsigned input_sets = 8;

unsigned
inputSeedOf(std::uint64_t seed)
{
    return static_cast<unsigned>((seed % input_sets + input_sets - 1) %
                                 input_sets) +
           1;
}

/** A stream buffer that counts the bytes written to it and keeps
 *  none. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++bytes_;
        return traits_type::not_eof(c);
    }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes_ += static_cast<std::uint64_t>(n);
        return n;
    }

  private:
    std::uint64_t bytes_ = 0;
};

/** An in-memory sink for the exporters: counts, discards. */
struct CountingSink
{
    CountingBuf buf;
    std::ostream os{&buf};
    std::uint64_t bytes() const { return buf.bytes(); }
};

// ---------------------------------------------------------------
// Points: one application on one machine.
// ---------------------------------------------------------------

struct PointSpec
{
    std::string app;
    unsigned procs = 0;
    double scale = 1.0; //!< AppModel::scaled factor
};

struct Point
{
    std::string id; //!< "FLO52.16p"
    std::string app;
    unsigned procs = 0;
    double scale = 1.0;
    bool hard = false;
    apps::AppModel model;
    hw::CedarConfig cfg;
    core::RunOptions opts;
};

/** FLO52/ARC2D at 16/32p: the fast path's learn/replay/miss work
 *  dominates there (ROADMAP's "hard single points"). */
bool
isHard(const std::string &app, unsigned procs)
{
    return (app == "FLO52" || app == "ARC2D") && procs >= 16;
}

std::string
pointId(const std::string &app, unsigned procs)
{
    return app + "." + std::to_string(procs) + "p";
}

std::string
scaleTag(double scale)
{
    std::ostringstream os;
    os << "x" << scale;
    return os.str();
}

/** Reference-digest key of one point of @p workload. */
std::string
pointKey(const Ctx &cx, const std::string &workload, double scale,
         const std::string &id)
{
    return workload + "/" + scaleTag(scale) + "/s" +
           std::to_string(cx.inputSeed) + "/" + id;
}

/** Build and validate every point (part of set-up). */
std::vector<Point>
buildPoints(Ctx &cx, const std::vector<PointSpec> &specs,
            double &modelBuildS)
{
    std::vector<Point> pts;
    for (const auto &s : specs) {
        Point p;
        p.id = pointId(s.app, s.procs);
        p.app = s.app;
        p.procs = s.procs;
        p.scale = s.scale;
        p.hard = isHard(s.app, s.procs);
        {
            auto span = cx.probe.scope("apps.model_build", "apps", p.id);
            p.model = apps::perfectAppByName(s.app).scaled(s.scale);
            modelBuildS += span.stop();
        }
        p.cfg = hw::CedarConfig::withProcs(s.procs);
        p.cfg.seed = cx.inputSeed;
        p.cfg.validate();
        p.opts.seed = cx.inputSeed;
        core::validateRunOptions(p.opts);
        pts.push_back(std::move(p));
    }
    return pts;
}

/** Largest per-CE accounting overshoot accepted, in ticks: an op in
 *  flight when the main task finished was charged when issued, so a
 *  CE's busy time may pass CT by that much (the ledger then zeroes
 *  its idle time). Same bound as the repository's runtime tests. */
constexpr cedar::sim::Tick max_overshoot_ticks = 60000;

/** Empty when the run completed and every CE's TimeCats sum to CT
 *  (up to the accounted overshoot). */
std::string
runProblem(const core::RunResult &r, const std::string &id)
{
    if (r.status != cedar::sim::RunStatus::Completed)
        return id + ": run status " +
               std::string(cedar::sim::toString(r.status));
    const auto idle = static_cast<std::size_t>(cedar::os::TimeCat::idle);
    for (std::size_t i = 0; i < r.ceAcct.size(); ++i) {
        cedar::sim::Tick sum = 0;
        for (auto t : r.ceAcct[i].cat)
            sum += t;
        const bool exact = sum == r.ct;
        const bool overshoot = sum > r.ct && r.ceAcct[i].cat[idle] == 0 &&
                               sum - r.ct <= max_overshoot_ticks;
        if (!exact && !overshoot)
            return id + ": CE " + std::to_string(i) +
                   " TimeCats sum to " + std::to_string(sum) +
                   ", CT is " + std::to_string(r.ct);
    }
    return {};
}

/** Index of @p procs among the paper's processor counts. */
std::size_t
paperIndex(unsigned procs)
{
    const auto &pc = cedar::bench::configs;
    auto it = std::find(pc.begin(), pc.end(), procs);
    if (it == pc.end())
        throw std::logic_error("not a paper processor count");
    return static_cast<std::size_t>(it - pc.begin());
}

/**
 * Mean absolute relative error (%) of simulated speedups against
 * paper Table 1. @p ct maps (app, procs) to completion time; every
 * multi-processor entry whose app also has a 1p entry is scored.
 */
double
speedupErrPct(const std::map<std::pair<std::string, unsigned>, double> &ct)
{
    double sum = 0;
    unsigned n = 0;
    for (const auto &[key, t] : ct) {
        const auto &[app, procs] = key;
        auto base = ct.find({app, 1u});
        if (procs == 1 || base == ct.end() || t <= 0)
            continue;
        const double sim = base->second / t;
        const double paper =
            cedar::bench::paper_speedup.at(app)[paperIndex(procs)];
        sum += std::abs(sim - paper) / paper * 100.0;
        ++n;
    }
    if (n == 0)
        throw std::logic_error("no speedups to score");
    return sum / n;
}

/** Simulated-work counters of finished runs, split hard/light. */
struct RunTally
{
    double hardWall = 0, lightWall = 0; //!< runExperiment normalized s
    std::uint64_t hardEvents = 0, lightEvents = 0, peakPending = 0;
    std::uint64_t hits[2] = {0, 0}, misses[2] = {0, 0},
                  patterns[2] = {0, 0};
    std::uint64_t globalWords = 0, resourceWait = 0, moduleRequests = 0,
                  moduleWait = 0, ceQueueStall = 0, ctxSwitches = 0,
                  pageFaults = 0, bodies = 0, loops = 0;

    void
    add(const core::RunResult &r, bool hard, double wall)
    {
        const int g = hard ? 0 : 1;
        (hard ? hardWall : lightWall) += wall;
        (hard ? hardEvents : lightEvents) += r.eventsExecuted;
        peakPending = std::max<std::uint64_t>(peakPending, r.peakPending);
        hits[g] += r.fastPathHits;
        misses[g] += r.fastPathMisses;
        patterns[g] += r.fastPathPatterns;
        globalWords += r.globalWords;
        resourceWait += r.resourceWait;
        const auto &mm =
            r.metrics.perClass(obs::ResourceClass::memory_module);
        moduleRequests += mm.requests;
        moduleWait += mm.waitTicks;
        ceQueueStall += r.ceQueueStall;
        ctxSwitches += r.osStats.ctxSwitches;
        pageFaults += r.seqFaults + r.concFaults;
        bodies += r.rtlStats.bodiesExecuted;
        loops += r.rtlStats.loopsPosted;
    }

    void
    store(Values &v) const
    {
        auto rate = [](std::uint64_t ev, double s) {
            return s > 0 ? static_cast<double>(ev) / s : 0.0;
        };
        auto nsPer = [](double s, std::uint64_t ev) {
            return ev ? s * 1e9 / static_cast<double>(ev) : 0.0;
        };
        v["sim.events"] = static_cast<double>(hardEvents + lightEvents);
        v["sim.events_per_s.hard"] = rate(hardEvents, hardWall);
        v["sim.events_per_s.light"] = rate(lightEvents, lightWall);
        v["sim.host_ns_per_event.hard"] = nsPer(hardWall, hardEvents);
        v["sim.host_ns_per_event.light"] = nsPer(lightWall, lightEvents);
        v["sim.peak_pending"] = static_cast<double>(peakPending);
        v["net.fastpath_hits.hard"] = static_cast<double>(hits[0]);
        v["net.fastpath_hits.light"] = static_cast<double>(hits[1]);
        v["net.fastpath_misses.hard"] = static_cast<double>(misses[0]);
        v["net.fastpath_misses.light"] = static_cast<double>(misses[1]);
        v["net.fastpath_patterns.hard"] = static_cast<double>(patterns[0]);
        v["net.fastpath_patterns.light"] =
            static_cast<double>(patterns[1]);
        const HitRate hr = hitRate(hits[0], hits[0] + misses[0]);
        v["net.fastpath_hit_rate.hard"] = hr.rate;
        v["net.fastpath_attempts.hard"] = static_cast<double>(hr.base);
        v["net.global_words"] = static_cast<double>(globalWords);
        v["net.resource_wait_ticks"] = static_cast<double>(resourceWait);
        v["mem.module_requests"] = static_cast<double>(moduleRequests);
        v["mem.module_wait_ticks"] = static_cast<double>(moduleWait);
        v["hw.ce_queue_stall_ticks"] = static_cast<double>(ceQueueStall);
        v["os.ctx_switches"] = static_cast<double>(ctxSwitches);
        v["os.page_faults"] = static_cast<double>(pageFaults);
        v["rtl.bodies_executed"] = static_cast<double>(bodies);
        v["rtl.loops_posted"] = static_cast<double>(loops);
        v["core.run_experiment_s.hard"] = hardWall;
        v["core.run_experiment_s.light"] = lightWall;
    }
};

// ---------------------------------------------------------------
// Workloads. Each has a set-up (timed as setup_s, repeated) and a
// pass (timed as wall_norm_s, repeated for --seconds); checks run
// after each pass, outside its timing.
// ---------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build every input the passes need; returns model-build s. */
    virtual double setup(Ctx &cx) = 0;
    /** One measured pass; fills @p v and counts checked operations. */
    virtual void pass(Ctx &cx, unsigned index, Values &v) = 0;
    /** Checks that need the whole run, after the last pass; the
     *  values it returns apply to every pass. */
    virtual Values finish(Ctx &) { return {}; }
    /** Whether every library call runs on the calling thread. */
    virtual bool serial() const { return true; }
    /** The host-speed kernel that stands for this workload's calls. */
    virtual HostSpeed::Kernel
    hostKernel() const
    {
        return HostSpeed::Kernel::heap_table;
    }
};

/** The paper's 25 points at full scale, serially, fast path on. */
class PaperSweep : public Workload
{
  public:
    double
    setup(Ctx &cx) override
    {
        std::vector<PointSpec> specs;
        for (const char *app : {"FLO52", "ARC2D", "MDG", "OCEAN", "ADM"})
            for (unsigned p : cedar::bench::configs)
                specs.push_back({app, p, 1.0});
        double build = 0;
        points_ = buildPoints(cx, specs, build);
        return build;
    }

    void
    pass(Ctx &cx, unsigned, Values &v) override
    {
        std::vector<core::RunResult> runs;
        std::vector<double> secs;
        auto root = cx.probe.scope("paper_sweep.pass", "perfbench");
        // Short points are normalized in groups of at least
        // min_group_s, so host-speed samples cost little of the pass.
        std::size_t groupStart = 0;
        double groupS = 0;
        cx.sampleHost();
        for (const Point &p : points_) {
            auto span = cx.probe.scope("core.run_experiment", "core", p.id);
            runs.push_back(core::runExperiment(p.model, p.cfg, p.opts));
            secs.push_back(span.stop());
            groupS += secs.back();
            if (groupS < min_group_s && secs.size() < points_.size())
                continue;
            const double f = cx.sampleHost();
            for (std::size_t i = groupStart; i < secs.size(); ++i)
                secs[i] *= f;
            groupStart = secs.size();
            groupS = 0;
        }
        v["perfbench.wall_s"] = root.stop();

        RunTally tally;
        std::map<std::pair<std::string, unsigned>, double> ct;
        for (std::size_t i = 0; i < points_.size(); ++i) {
            const Point &p = points_[i];
            std::string why = runProblem(runs[i], p.id);
            if (why.empty())
                cx.ref.check(pointKey(cx, "paper_sweep", p.scale, p.id),
                             resultDigest(runs[i]), why);
            cx.checks.op(why);
            tally.add(runs[i], p.hard, secs[i]);
            ct[{p.app, p.procs}] = runs[i].seconds();
        }
        tally.store(v);
        v["wall_norm_s"] = tally.hardWall + tally.lightWall;
        v["hard_points_norm_s"] = tally.hardWall;
        v["light_points_norm_s"] = tally.lightWall;
        v["cold_points_per_norm_s"] =
            static_cast<double>(points_.size()) /
            (tally.hardWall + tally.lightWall);
        v["speedup_err_pct"] = speedupErrPct(ct);
    }

  private:
    static constexpr double min_group_s = 0.25;

    std::vector<Point> points_;
};

/** core::runStudy over an app x geometry x seed grid: cold, then
 *  fully cached, then buildSummary and its writers. */
class StudyGrid : public Workload
{
  public:
    double
    setup(Ctx &cx) override
    {
        entries_.clear();
        meta_.clear();
        const unsigned seeds[] = {cx.inputSeed, cx.inputSeed + 100};
        for (const char *app : {"FLO52", "ARC2D", "MDG", "OCEAN", "ADM"}) {
            for (unsigned seed : seeds) {
                for (unsigned g = 0; g <= cedar::bench::configs.size();
                     ++g) {
                    core::ScenarioSpec spec;
                    std::string geom;
                    if (g < cedar::bench::configs.size()) {
                        const unsigned procs = cedar::bench::configs[g];
                        spec.config = hw::CedarConfig::withProcs(procs);
                        geom = "procs-" + std::to_string(procs);
                    } else {
                        spec.config.nClusters = 2;
                        spec.config.cesPerCluster = 4;
                        geom = "clusters-2__ces_per_cluster-4";
                    }
                    spec.name = std::string(app) + "__seed-" +
                                std::to_string(seed) + "__" + geom;
                    spec.appName = app;
                    spec.config.seed = seed;
                    spec.options.seed = seed;
                    spec.options.scale = scale;
                    spec.validate();
                    core::StudyEntry e;
                    e.source = "grid";
                    e.name = spec.name;
                    e.hashValue = core::canonicalHashValue(spec);
                    e.hash = core::hashHex(e.hashValue);
                    const unsigned n = spec.config.numCes();
                    const bool paper = g < cedar::bench::configs.size();
                    meta_.push_back({app, n, paper, paper && isHard(app, n)});
                    e.spec = std::move(spec);
                    entries_.push_back(std::move(e));
                }
            }
        }
        fs::create_directories(cx.outDir);
        return 0;
    }

    void
    pass(Ctx &cx, unsigned index, Values &v) override
    {
        const fs::path cold =
            cx.outDir / ("study" + std::to_string(index) + "-cold");
        const fs::path cached =
            cx.outDir / ("study" + std::to_string(index) + "-cached");
        fs::remove_all(cold);
        fs::remove_all(cached);
        core::StudyOptions co;
        co.outDir = cold.string();
        co.jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
        core::StudyOptions ca = co;
        ca.outDir = cached.string();
        ca.cacheDir = (cold / "cache").string();

        core::StudyReport rc, rk;
        core::Summary sum;
        CountingSink sink;
        double coldS = 0, cachedS = 0, buildS = 0, writeS = 0, coldF = 0;
        auto root = cx.probe.scope("study_grid.pass", "perfbench");
        cx.sampleHost();
        {
            auto s = cx.probe.scope("core.run_study.cold", "core");
            rc = core::runStudy(entries_, co);
            coldS = s.stop();
        }
        coldF = cx.sampleHost();
        coldS *= coldF;
        {
            auto s = cx.probe.scope("core.run_study.cached", "core");
            rk = core::runStudy(entries_, ca);
            cachedS = s.stop();
        }
        cachedS *= cx.sampleHost();
        {
            auto s = cx.probe.scope("core.build_summary", "core");
            core::SummarizeOptions so;
            so.dirs = {cached.string()};
            sum = core::buildSummary(so);
            buildS = s.stop();
        }
        buildS *= cx.sampleHost();
        {
            auto s = cx.probe.scope("core.write_summary", "core");
            core::writeSummaryJson(sink.os, sum);
            core::writeSummaryMarkdown(sink.os, sum);
            writeS = s.stop();
        }
        writeS *= cx.sampleHost();
        v["perfbench.wall_s"] = root.stop();
        v["core.study_cold_s"] = coldS;
        v["core.study_cached_s"] = cachedS;
        v["core.summarize_build_s"] = buildS;
        v["core.summarize_write_s"] = writeS;
        v["wall_norm_s"] = coldS + cachedS + buildS + writeS;

        check(cx, rc, rk, sum, cold, cached, coldF, v);
        fs::remove_all(cold);
        fs::remove_all(cached);
    }

    bool serial() const override { return false; }

  private:
    static constexpr double scale = 0.1;

    struct Meta
    {
        std::string app;
        unsigned procs;
        bool paper; //!< a paper geometry (scored for speedup)
        bool hard;
    };

    static std::string
    slurp(const fs::path &p)
    {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return in ? os.str() : std::string();
    }

    void
    check(Ctx &cx, const core::StudyReport &rc, const core::StudyReport &rk,
          const core::Summary &sum, const fs::path &cold,
          const fs::path &cached, double factor, Values &v) const
    {
        std::vector<double> pointMs;
        std::map<std::pair<std::string, unsigned>, double> ct;
        double hardS = 0, lightS = 0;
        unsigned hits = 0;
        std::uint64_t events[2] = {0, 0}, peak = 0, words = 0, wait = 0,
                      stall = 0, modReq = 0, modWait = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const std::string &name = entries_[i].name;
            const core::StudyRow *a =
                i < rc.rows.size() ? &rc.rows[i] : nullptr;
            const core::StudyRow *b =
                i < rk.rows.size() ? &rk.rows[i] : nullptr;
            std::string why;
            if (!a || a->state != core::StudyState::done ||
                a->status != "completed")
                why = name + ": cold row not done/completed";
            std::string sJson, mJson;
            if (why.empty()) {
                sJson = slurp(cold / (name + ".json"));
                mJson = slurp(cold / (name + ".metrics.json"));
                if (sJson.empty() || mJson.empty())
                    why = name + ": cold artifacts missing";
                else
                    cx.ref.check(pointKey(cx, "study_grid", scale, name),
                                 core::hashHex(core::fnv1a64(sJson + mJson)),
                                 why);
            }
            cx.checks.op(why);
            why.clear();
            if (!b || b->state != core::StudyState::cached)
                why = name + ": cached pass did not serve from cache";
            else if (slurp(cached / (name + ".json")) != sJson ||
                     slurp(cached / (name + ".metrics.json")) != mJson)
                why = name + ": cached artifacts differ from cold pass";
            else
                ++hits;
            cx.checks.op(why);
            if (!a || sJson.empty())
                continue;

            const double ms = a->wallMs * factor;
            pointMs.push_back(ms);
            (meta_[i].hard ? hardS : lightS) += ms / 1000.0;
            using cedar::tools::JsonValue;
            const JsonValue s = JsonValue::parse(sJson);
            const JsonValue m = JsonValue::parse(mJson);
            const JsonValue &run = s.at("run");
            events[meta_[i].hard ? 0 : 1] += static_cast<std::uint64_t>(
                run.at("events_executed").asNumber());
            peak = std::max(peak, static_cast<std::uint64_t>(
                                      run.at("peak_pending").asNumber()));
            words +=
                static_cast<std::uint64_t>(run.at("global_words").asNumber());
            const JsonValue &c = s.at("contention");
            wait += static_cast<std::uint64_t>(
                c.at("resource_wait_ticks").asNumber());
            stall += static_cast<std::uint64_t>(
                c.at("ce_queue_stall_ticks").asNumber());
            const JsonValue &mm = m.at("classes").asArray().at(0);
            modReq +=
                static_cast<std::uint64_t>(mm.at("requests").asNumber());
            modWait +=
                static_cast<std::uint64_t>(mm.at("wait_ticks").asNumber());
            if (meta_[i].paper && entries_[i].spec->options.seed ==
                                      cx.inputSeed)
                ct[{meta_[i].app, meta_[i].procs}] = a->seconds;
        }
        std::string why;
        if (sum.scenarios.size() != entries_.size() ||
            !sum.failures.empty())
            why = "summary covers " + std::to_string(sum.scenarios.size()) +
                  " of " + std::to_string(entries_.size()) + " scenarios";
        cx.checks.op(why);

        const double n = static_cast<double>(entries_.size());
        v["hard_points_norm_s"] = hardS;
        v["light_points_norm_s"] = lightS;
        v["cold_points_per_norm_s"] = n / v["core.study_cold_s"];
        v["core.cached_points_per_s"] = n / v["core.study_cached_s"];
        const HitRate hr = hitRate(hits, entries_.size());
        v["core.study_cache_hit_rate"] = hr.rate;
        if (!pointMs.empty()) {
            v["core.cold_point_ms_p50"] = percentile(pointMs, 50).value;
            const Percentile p90 = percentile(pointMs, 90);
            v["core.cold_point_ms_p90"] = p90.value;
            v["core.cold_point_samples"] = static_cast<double>(p90.samples);
        }
        const double ev[2] = {static_cast<double>(events[0]),
                              static_cast<double>(events[1])};
        v["sim.events"] = ev[0] + ev[1];
        // Row wall times come from the pool's workers and include the
        // row's artifact writes; they are normalized by the cold
        // pass's host-speed factor.
        v["sim.events_per_s.hard"] = hardS > 0 ? ev[0] / hardS : 0.0;
        v["sim.events_per_s.light"] = lightS > 0 ? ev[1] / lightS : 0.0;
        v["sim.host_ns_per_event.hard"] = ev[0] > 0 ? hardS * 1e9 / ev[0] : 0.0;
        v["sim.host_ns_per_event.light"] =
            ev[1] > 0 ? lightS * 1e9 / ev[1] : 0.0;
        v["sim.peak_pending"] = static_cast<double>(peak);
        v["net.global_words"] = static_cast<double>(words);
        v["net.resource_wait_ticks"] = static_cast<double>(wait);
        v["hw.ce_queue_stall_ticks"] = static_cast<double>(stall);
        v["mem.module_requests"] = static_cast<double>(modReq);
        v["mem.module_wait_ticks"] = static_cast<double>(modWait);
        if (ct.size() == 5 * cedar::bench::configs.size())
            v["speedup_err_pct"] = speedupErrPct(ct);
    }

    std::vector<core::StudyEntry> entries_;
    std::vector<Meta> meta_;
};

/** ARC2D 16p and ADM 32p with the span timeline and time series on,
 *  then buildReport and the metrics/span-trace exporters. */
class ObservedRun : public Workload
{
  public:
    double
    setup(Ctx &cx) override
    {
        double build = 0;
        points_ = buildPoints(
            cx, {{"ARC2D", 16, arc2d_scale}, {"ADM", 32, adm_scale}}, build);
        for (Point &p : points_) {
            p.opts.collectTimeline = true;
            p.opts.tsWindow = ts_window;
        }
        bases_ = buildPoints(
            cx, {{"ARC2D", 1, arc2d_scale}, {"ADM", 1, adm_scale}}, build);
        return build;
    }

    void
    pass(Ctx &cx, unsigned, Values &v) override
    {
        RunTally tally;
        std::uint64_t timeline = 0, windows = 0, bytes = 0;
        double reportS = 0, metricsS = 0, spanS = 0, pointS[2] = {0, 0};
        auto root = cx.probe.scope("observed_run.pass", "perfbench");
        cx.sampleHost();
        for (const Point &p : points_) {
            auto point = cx.probe.scope("point", "perfbench", p.id);
            core::RunResult r;
            double runS = 0, repS = 0, metS = 0, spS = 0;
            {
                auto s = cx.probe.scope("core.run_experiment", "core", p.id);
                r = core::runExperiment(p.model, p.cfg, p.opts);
                runS = s.stop();
            }
            runS *= cx.sampleHost();
            CountingSink sink;
            core::Report rep;
            {
                auto s = cx.probe.scope("core.build_report", "core", p.id);
                rep = core::buildReport(r);
                rep.writeJson(sink.os);
                repS = s.stop();
            }
            {
                auto s = cx.probe.scope("obs.metrics_json", "obs", p.id);
                r.metrics.writeJson(sink.os, &r.timeseries);
                metS = s.stop();
            }
            {
                auto s = cx.probe.scope("obs.span_export", "obs", p.id);
                obs::SpanTraceMeta meta;
                meta.clock_hz = r.clockHz;
                meta.ces_per_cluster = r.cesPerCluster;
                meta.timeseries = &r.timeseries;
                obs::writeSpanTrace(sink.os, r.timeline, meta);
                spS = s.stop();
            }
            point.stop();
            const double f = cx.sampleHost();
            reportS += repS * f;
            metricsS += metS * f;
            spanS += spS * f;
            // The point's time leaves out the host-speed samples.
            pointS[p.hard ? 0 : 1] += runS + (repS + metS + spS) * f;

            std::string why = runProblem(r, p.id);
            if (why.empty() && (!rep.tracer.performed ||
                                rep.tracer.maxMismatch != 0 ||
                                rep.maxConservationError != 0))
                why = p.id + ": span timeline disagrees with the ledger";
            if (why.empty() && r.fastPathHits != 0)
                why = p.id + ": fast path engaged under tracing";
            if (why.empty())
                traced_[p.id].push_back(resultDigest(r));
            cx.checks.op(why);
            tally.add(r, p.hard, runS);
            timeline += r.timeline.size();
            windows += r.timeseries.windows.size();
            bytes += sink.bytes();
        }
        v["perfbench.wall_s"] = root.stop();
        tally.store(v);
        v["wall_norm_s"] = pointS[0] + pointS[1];
        v["hard_points_norm_s"] = pointS[0];
        v["light_points_norm_s"] = pointS[1];
        // A point is done when its report and exports exist.
        v["cold_points_per_norm_s"] =
            static_cast<double>(points_.size()) / (pointS[0] + pointS[1]);
        v["core.report_build_s"] = reportS;
        v["obs.metrics_json_s"] = metricsS;
        v["obs.span_export_s"] = spanS;
        v["obs.span_export_bytes"] = static_cast<double>(bytes);
        v["obs.timeline_events"] = static_cast<double>(timeline);
        v["obs.ts_windows"] = static_cast<double>(windows);
        v["obs.host_ns_per_timeline_event"] =
            timeline ? (tally.hardWall + tally.lightWall) * 1e9 /
                           static_cast<double>(timeline)
                     : 0.0;
    }

    /** Untraced runs of the same points: tracing on == off, the
     *  reference digest, and the 1p bases of the speedups. */
    Values
    finish(Ctx &cx) override
    {
        std::map<std::pair<std::string, unsigned>, double> ct;
        for (const Point &p : points_) {
            core::RunOptions plain = p.opts;
            plain.collectTimeline = false;
            plain.tsWindow = 0;
            const core::RunResult r = core::runExperiment(p.model, p.cfg, plain);
            const std::string d = resultDigest(r);
            std::string why = runProblem(r, p.id + " (untraced)");
            if (why.empty())
                cx.ref.check(pointKey(cx, "observed_run", p.scale, p.id), d,
                             why);
            for (const std::string &t : traced_[p.id])
                if (why.empty() && t != d)
                    why = p.id + ": traced result differs from untraced";
            cx.checks.op(why);
            ct[{p.app, p.procs}] = r.seconds();
        }
        for (const Point &p : bases_) {
            const core::RunResult r = core::runExperiment(p.model, p.cfg, p.opts);
            std::string why = runProblem(r, p.id);
            if (why.empty())
                cx.ref.check(pointKey(cx, "observed_run", p.scale, p.id),
                             resultDigest(r), why);
            cx.checks.op(why);
            ct[{p.app, p.procs}] = r.seconds();
        }
        return {{"speedup_err_pct", speedupErrPct(ct)}};
    }

    /** A pass is nearly all span export: number formatting. */
    HostSpeed::Kernel
    hostKernel() const override
    {
        return HostSpeed::Kernel::format;
    }

  private:
    // Sized so each export call takes about 0.5-3 s: ARC2D 16p at
    // its smallest scale yields ~0.18M timeline events (~53 MB of
    // span trace), ADM 32p ~50K. FLO52 16p cannot go below ~0.35M
    // events, and one export call of 4-6 s is longer than the
    // host-speed samples around it can follow (hostspeed.hh).
    static constexpr double arc2d_scale = 0.0002;
    static constexpr double adm_scale = 0.01;
    static constexpr cedar::sim::Tick ts_window = 1000;

    std::vector<Point> points_, bases_;
    std::map<std::string, std::vector<std::string>> traced_;
};

// ---------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

void
writeProvenance(cedar::tools::JsonWriter &w, const Ctx &cx)
{
    w.beginObject();
    w.field("workload", cx.workload);
    w.field("seed", static_cast<std::uint64_t>(cx.seed));
    w.field("input_seed", cx.inputSeed);
    w.field("seconds", cx.seconds);
    w.field("trace", cx.trace);
    w.field("cpu", cpuModel());
    w.field("hw_threads", std::thread::hardware_concurrency());
    w.field("compiler", std::string(__VERSION__));
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("pinned_cpu", static_cast<std::int64_t>(cx.pinnedCpu));
    w.field("commit", cx.commit);
    w.endObject();
}

/**
 * Keep the calling thread on the CPU it runs on now, so that the
 * host-speed kernel and the calls it brackets see the same CPU's
 * share of the host (hostspeed.hh). Threads created later inherit
 * the pin, so a workload with a worker pool is not pinned. Returns
 * the CPU, or -1 when it cannot pin.
 */
int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/** JsonWriter indents; result and provenance lines must be one line. */
std::string
oneLine(const std::string &json)
{
    std::string text;
    bool skipIndent = false;
    for (char c : json) {
        if (c == '\n')
            skipIndent = true;
        else if (!(skipIndent && c == ' ')) {
            skipIndent = false;
            text += c;
        }
    }
    return text;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------
// Runner
// ---------------------------------------------------------------

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload paper_sweep|study_grid|"
                 "observed_run [--seed N] [--seconds S] [--trace 0|1] "
                 "[--out DIR] [--reference FILE] [--record] "
                 "[--commit ID]\n";
    std::exit(2);
}

Ctx
parseArgs(int argc, char **argv)
{
    Ctx cx;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                cx.workload = next();
            else if (a == "--seed")
                cx.seed = std::stoull(next());
            else if (a == "--seconds")
                cx.seconds = std::stod(next());
            else if (a == "--trace")
                cx.trace = std::stoi(next()) != 0;
            else if (a == "--out")
                cx.outDir = next();
            else if (a == "--reference")
                cx.referencePath = next();
            else if (a == "--record")
                cx.record = true;
            else if (a == "--commit")
                cx.commit = next();
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("malformed value for " + a);
        }
    }
    if (cx.workload.empty())
        usage("--workload is required");
    if (!(cx.seconds > 0))
        usage("--seconds must be positive");
    cx.inputSeed = inputSeedOf(cx.seed);
    return cx;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "paper_sweep")
        return std::make_unique<PaperSweep>();
    if (name == "study_grid")
        return std::make_unique<StudyGrid>();
    if (name == "observed_run")
        return std::make_unique<ObservedRun>();
    usage("unknown workload " + name);
}

/** Median over passes of each metric the passes recorded. */
Values
medians(const std::vector<Values> &passes)
{
    std::map<std::string, std::vector<double>> cols;
    for (const Values &v : passes)
        for (const auto &[k, x] : v)
            cols[k].push_back(x);
    Values out;
    for (const auto &[k, xs] : cols)
        out[k] = median(xs);
    return out;
}

int
run(Ctx &cx)
{
    auto wl = makeWorkload(cx.workload);
    if (wl->serial())
        cx.pinnedCpu = pinToCurrentCpu();
    cx.host.use(wl->hostKernel());
    // Recording merges into the existing file, which may not exist
    // yet; checking needs it.
    if (!cx.record || fs::exists(cx.referencePath))
        cx.ref.load(cx.referencePath);
    cx.ref.setRecording(cx.record);

    // Set-up takes microseconds, and the host's speed changes over
    // seconds, so one batch of repetitions would only sample the
    // moment the run started. A batch runs before the first pass and
    // another after every pass (rebuilding identical inputs); set-up
    // time is the median over all of them. The very first set-up is
    // traced, in the traced mode, so the trace shows the apps layer.
    // Each batch is normalized by the host-speed samples around it.
    std::vector<double> setupS, buildS;
    auto setupBatch = [&](bool traceFirst) {
        std::vector<double> setup, build;
        cx.sampleHost();
        const std::int64_t batchStart = nowNs();
        for (unsigned rep = 0; rep < 50; ++rep) {
            cx.probe.setTracing(traceFirst && rep == 0);
            auto s = cx.probe.scope("setup", "perfbench");
            build.push_back(wl->setup(cx));
            setup.push_back(s.stop());
            cx.probe.setTracing(false);
            if (nowNs() - batchStart > 200'000'000)
                break;
        }
        const double f = cx.sampleHost();
        for (std::size_t i = 0; i < setup.size(); ++i) {
            setupS.push_back(setup[i] * f);
            buildS.push_back(build[i] * f);
        }
    };
    setupBatch(cx.trace);

    // Measured passes. Traced mode alternates untraced and traced
    // passes so the overhead is measured on the same inputs.
    std::vector<Values> plain, traced;
    std::vector<double> passWall;
    const std::int64_t start = nowNs();
    for (unsigned index = 0;; ++index) {
        const bool tracing = cx.trace && index % 2 == 1;
        cx.probe.setTracing(tracing);
        Values v;
        wl->pass(cx, index, v);
        cx.probe.setTracing(false);
        passWall.push_back(v["perfbench.wall_s"]);
        std::cout << "pass " << index << (tracing ? " (traced)" : "")
                  << ": wall_s " << v["perfbench.wall_s"] << ", wall_norm_s "
                  << v["wall_norm_s"] << "\n";
        (tracing ? traced : plain).push_back(std::move(v));
        const double elapsed = static_cast<double>(nowNs() - start) * 1e-9;
        setupBatch(false);
        const bool enough = !cx.trace || !traced.empty();
        if (cx.record || (enough && elapsed + median(passWall) > cx.seconds))
            break;
    }
    const Values whole = wl->finish(cx);
    for (auto *passes : {&plain, &traced})
        for (Values &v : *passes)
            for (const auto &[k, x] : whole)
                v[k] = x;

    Values e2e = medians(plain);
    e2e["setup_s"] = median(setupS);
    e2e["peak_rss_mb"] = peakRssMb();
    Values layer = medians(traced.empty() ? plain : traced);
    layer["apps.model_build_s"] = median(buildS);
    const double hostFactor = median(cx.host.factors());
    layer["perfbench.host_speed"] = hostFactor;

    // Self time per layer over the traced spans (scaled by the run's
    // median host-speed factor), and the closure check: every root's
    // self time plus its descendants' equals its wall time.
    if (cx.trace) {
        const auto &spans = cx.probe.spans();
        auto byLayer = selfTimeByLayer(spans);
        for (const char *l : {"perfbench", "apps", "core", "obs"})
            layer[std::string(l) + ".self_s"] =
                static_cast<double>(byLayer[l]) * 1e-9 * hostFactor /
                static_cast<double>(traced.size());
        const auto self = selfTimes(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent >= 0)
                continue;
            const auto wall = spans[i].end - spans[i].start;
            const auto sum = subtreeSelfTime(spans, self, i);
            cx.checks.op(sum == wall ? std::string()
                                     : spans[i].name +
                                           ": self times do not sum to "
                                           "the span's wall time");
        }
        layer["perfbench.trace_overhead_pct"] =
            (medians(traced)["wall_norm_s"] / e2e["wall_norm_s"] - 1.0) *
            100.0;
        fs::create_directories(cx.outDir);
        const fs::path tracePath =
            cx.outDir / (cx.workload + "-seed" + std::to_string(cx.seed) +
                         ".trace.json");
        std::ofstream out(tracePath);
        writeSpanJson(out, spans);
        std::cout << "span trace: " << tracePath.string() << " ("
                  << spans.size() << " spans)\n";
    }
    layer["fail_rate"] =
        cx.checks.attempted
            ? static_cast<double>(cx.checks.failed) /
                  static_cast<double>(cx.checks.attempted)
            : 1.0;

    if (cx.record) {
        cx.ref.save(cx.referencePath);
        std::cout << "recorded reference digests into " << cx.referencePath
                  << "\n";
    }

    // Human-readable table: every metric by name, with its unit.
    std::cout << "passes: " << plain.size() << " untraced, "
              << traced.size() << " traced\n";
    for (const MetricDef &d : metricDefs()) {
        const Values &src = d.endToEnd ? e2e : layer;
        auto it = src.find(d.name);
        std::cout << "  " << std::left << std::setw(34) << d.name
                  << std::right << std::setw(16);
        if (it == src.end())
            std::cout << "-";
        else
            std::cout << std::setprecision(6) << it->second;
        std::cout << "  " << std::left << std::setw(6) << d.unit
                  << (d.endToEnd ? " end-to-end" : " per-layer") << "\n";
    }
    for (const std::string &e : cx.checks.errors)
        std::cout << "CHECK FAILED: " << e << "\n";
    std::ostringstream prov;
    {
        cedar::tools::JsonWriter w(prov);
        writeProvenance(w, cx);
    }
    const std::string provenance = oneLine(prov.str());
    std::cout << "provenance: " << provenance << "\n";

    // The result line.
    std::ostringstream line;
    cedar::tools::JsonWriter w(line);
    w.beginObject();
    w.field("correct", cx.checks.failed == 0);
    w.field("attempted", static_cast<std::uint64_t>(cx.checks.attempted));
    w.field("failed", static_cast<std::uint64_t>(cx.checks.failed));
    w.key("metrics").beginObject();
    for (const MetricDef &d : metricDefs()) {
        if (d.endToEnd == cx.trace)
            continue;
        const Values &src = d.endToEnd ? e2e : layer;
        auto it = src.find(d.name);
        w.key(d.name).beginObject();
        w.field("value", it == src.end() ? 0.0 : it->second);
        w.field("unit", d.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    const std::string result = oneLine(line.str());

    // The full record (provenance, every metric, failed checks) next
    // to the trace, then the result line.
    fs::create_directories(cx.outDir);
    core::atomicWriteFile(
        (cx.outDir / (cx.workload + "-seed" + std::to_string(cx.seed) +
                      (cx.trace ? ".traced" : "") + ".result.json"))
            .string(),
        [&](std::ostream &os) {
            cedar::tools::JsonWriter r(os);
            r.beginObject();
            r.key("provenance");
            writeProvenance(r, cx);
            r.key("end_to_end").beginObject();
            for (const auto &[k, x] : e2e)
                r.field(k, x);
            r.endObject();
            r.key("per_layer").beginObject();
            for (const auto &[k, x] : layer)
                r.field(k, x);
            r.endObject();
            r.key("failed_checks").beginArray();
            for (const std::string &e : cx.checks.errors)
                r.value(e);
            r.endArray();
            r.endObject();
            os << "\n";
        });
    std::cout << result << std::endl;
    return cx.checks.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__) || defined(PERFBENCH_SANITIZED)
    (void)argc;
    (void)argv;
    std::cerr << "perfbench: refusing to time an unoptimized or sanitizer "
                 "build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
#else
    Ctx cx = parseArgs(argc, argv);
    try {
        return run(cx);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
#endif
}
