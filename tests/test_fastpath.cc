/**
 * @file
 * Tests for the analytic fast-forward path (net/fastpath.hh) and the
 * saturating-arithmetic hardening that rode along with it.
 *
 * The fast path's correctness bar is absolute: with it enabled, not a
 * single published number may change — completion time, event counts,
 * per-resource statistics, the metrics JSON and the telemetry
 * timeline must be bit-identical to the slow path. These tests pin
 * that down at every paper point, on a non-paper geometry, and on a
 * fault-injected run where the fast path must bail out entirely.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/perfect.hh"
#include "apps/workload.hh"
#include "core/experiment.hh"
#include "fault/fault.hh"
#include "hw/config.hh"
#include "mem/address_map.hh"
#include "mem/global_memory.hh"
#include "net/fastpath.hh"
#include "net/network.hh"
#include "sim/types.hh"

namespace
{

using namespace cedar;
using cedar::sim::Tick;
using fault::parseFaultSpec;

// ---------------------------------------------------------------
// Saturating Tick arithmetic (sim/types.hh)
// ---------------------------------------------------------------

TEST(SatArith, AddSaturatesAtMaxTick)
{
    EXPECT_EQ(sim::satAdd(0, 0), 0u);
    EXPECT_EQ(sim::satAdd(10, 32), 42u);
    EXPECT_EQ(sim::satAdd(sim::max_tick, 0), sim::max_tick);
    EXPECT_EQ(sim::satAdd(sim::max_tick, 1), sim::max_tick);
    EXPECT_EQ(sim::satAdd(sim::max_tick - 5, 5), sim::max_tick);
    EXPECT_EQ(sim::satAdd(sim::max_tick - 5, 6), sim::max_tick);
    EXPECT_EQ(sim::satAdd(Tick(1) << 63, Tick(1) << 63), sim::max_tick);
}

TEST(SatArith, ShlSaturatesInsteadOfWrapping)
{
    EXPECT_EQ(sim::satShl(1, 0), 1u);
    EXPECT_EQ(sim::satShl(1, 10), 1024u);
    EXPECT_EQ(sim::satShl(0, 63), 0u);
    // The exact boundary: 1 << 63 fits, anything past it saturates.
    EXPECT_EQ(sim::satShl(1, 63), Tick(1) << 63);
    EXPECT_EQ(sim::satShl(2, 63), sim::max_tick);
    EXPECT_EQ(sim::satShl(3, 62), Tick(3) << 62);
    EXPECT_EQ(sim::satShl(4, 62), sim::max_tick);
    // The historical bug: a backoff of 2^33 shifted by 31+ attempts
    // wrapped to garbage. Now it pins to max_tick.
    EXPECT_EQ(sim::satShl(Tick(1) << 33, 31), sim::max_tick);
    EXPECT_EQ(sim::satShl(Tick(1) << 60, 30), sim::max_tick);
    // Shift counts >= the word width are well defined here (plain
    // << would be UB).
    EXPECT_EQ(sim::satShl(1, 64), sim::max_tick);
    EXPECT_EQ(sim::satShl(1, 200), sim::max_tick);
    EXPECT_EQ(sim::satShl(0, 64), 0u); // zero shifted is still zero
}

// ---------------------------------------------------------------
// Shared run-comparison helper
// ---------------------------------------------------------------

std::string
metricsJson(const core::RunResult &r)
{
    std::ostringstream os;
    r.metrics.writeJson(os);
    return os.str();
}

/**
 * Every published number of the two runs must agree exactly. The
 * fast-path engagement counters are deliberately excluded: they are
 * the only fields allowed to differ between a fast and a slow run.
 */
void
expectBitIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.ct, b.ct);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.peakPending, b.peakPending);
    EXPECT_EQ(a.ceQueueStall, b.ceQueueStall);
    EXPECT_EQ(a.resourceWait, b.resourceWait);
    EXPECT_EQ(a.globalWords, b.globalWords);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.accessesDegraded, b.accessesDegraded);
    EXPECT_EQ(a.parkedCes, b.parkedCes);
    EXPECT_EQ(a.seqFaults, b.seqFaults);
    EXPECT_EQ(a.concFaults, b.concFaults);
    EXPECT_EQ(a.machineConcurrency, b.machineConcurrency);
    ASSERT_EQ(a.clusterConcurrency.size(), b.clusterConcurrency.size());
    for (std::size_t i = 0; i < a.clusterConcurrency.size(); ++i)
        EXPECT_EQ(a.clusterConcurrency[i], b.clusterConcurrency[i]);
    ASSERT_EQ(a.ceAcct.size(), b.ceAcct.size());
    EXPECT_EQ(metricsJson(a), metricsJson(b));
}

void
expectSameTimeline(const core::RunResult &a, const core::RunResult &b)
{
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        const auto &x = a.timeline[i];
        const auto &y = b.timeline[i];
        const bool same = x.when == y.when && x.dur == y.dur &&
                          x.id == y.id && x.kind == y.kind &&
                          x.cat == y.cat && x.act == y.act &&
                          x.flags == y.flags && x.ce == y.ce &&
                          x.res == y.res;
        ASSERT_TRUE(same) << "timeline diverges at event " << i;
    }
}

core::RunResult
runPoint(const apps::AppModel &app, unsigned procs, bool fast,
         double scale)
{
    core::RunOptions o;
    o.scale = scale;
    o.fastPath = fast;
    return core::runExperiment(app, procs, o);
}

// ---------------------------------------------------------------
// Bit identity at the paper points
// ---------------------------------------------------------------

TEST(FastPathIdentity, AllPaperAppsEightProcs)
{
    for (const char *name : {"FLO52", "ARC2D", "MDG", "OCEAN", "ADM"}) {
        SCOPED_TRACE(name);
        const auto app = apps::perfectAppByName(name);
        const auto fast = runPoint(app, 8, true, 0.04);
        const auto slow = runPoint(app, 8, false, 0.04);
        EXPECT_EQ(slow.fastPathHits, 0u);
        EXPECT_EQ(slow.fastPathPatterns, 0u);
        expectBitIdentical(fast, slow);
    }
}

TEST(FastPathIdentity, Flo52AcrossMachineSizes)
{
    const auto app = apps::perfectAppByName("FLO52");
    for (const unsigned p : {1u, 4u, 16u, 32u}) {
        SCOPED_TRACE(p);
        expectBitIdentical(runPoint(app, p, true, 0.03),
                           runPoint(app, p, false, 0.03));
    }
}

TEST(FastPathIdentity, Arc2dConvoyGeometries)
{
    // ARC2D at 16/32p is where convoy phases produce the widest
    // spread of offset vectors — the workload the don't-care
    // canonicalization (DESIGN.md §10) exists for. Identity must
    // hold with the canonicalized keying engaged.
    const auto app = apps::perfectAppByName("ARC2D");
    for (const unsigned p : {16u, 32u}) {
        SCOPED_TRACE(p);
        const auto fast = runPoint(app, p, true, 0.02);
        const auto slow = runPoint(app, p, false, 0.02);
        EXPECT_GT(fast.fastPathHits, 0u);
        expectBitIdentical(fast, slow);
    }
}

/** A non-paper machine shape with the default 4-module groups. */
hw::CedarConfig
offGrid(unsigned clusters, unsigned ces, unsigned modules)
{
    hw::CedarConfig cfg;
    cfg.nClusters = clusters;
    cfg.cesPerCluster = ces;
    cfg.nModules = modules;
    return cfg;
}

/** Fast == slow on one off-grid point, with patterns learned and
 *  replayed there (an identity that never engages proves nothing). */
void
expectOffGridIdentity(const char *app_name, const hw::CedarConfig &cfg,
                      double scale)
{
    SCOPED_TRACE(std::string(app_name) + " on " + cfg.label() + ", " +
                 std::to_string(cfg.nModules) + " modules");
    ASSERT_NO_THROW(cfg.validate());
    const auto app = apps::perfectAppByName(app_name);
    core::RunOptions o;
    o.scale = scale;
    o.fastPath = true;
    const auto fast = core::runExperiment(app, cfg, o);
    o.fastPath = false;
    const auto slow = core::runExperiment(app, cfg, o);
    EXPECT_GT(fast.fastPathPatterns, 0u);
    EXPECT_GT(fast.fastPathHits, 0u);
    EXPECT_EQ(slow.fastPathHits, 0u);
    expectBitIdentical(fast, slow);
}

TEST(FastPathIdentity, NonPaperTwoByFourGeometry)
{
    // 2 clusters x 4 CEs is not a paper point; the pattern machinery
    // must be geometry-agnostic, not tuned to the five published
    // configurations.
    expectOffGridIdentity("FLO52", offGrid(2, 4, 32), 0.04);
}

TEST(FastPathIdentity, OffGridEightByFourSixtyFourModules)
{
    // 32 CEs as 8 clusters of 4 in front of twice the paper's memory:
    // 16 stage-2 groups, so shapes touch more (and wider) banks.
    const auto cfg = offGrid(8, 4, 64);
    expectOffGridIdentity("FLO52", cfg, 0.03);
    expectOffGridIdentity("ARC2D", cfg, 0.02);
}

TEST(FastPathIdentity, OffGridOneBySixteen)
{
    // 16 CEs in one cluster: every access shares one stage-1
    // crossbar and one returnB crossbar.
    const auto cfg = offGrid(1, 16, 32);
    expectOffGridIdentity("FLO52", cfg, 0.03);
    expectOffGridIdentity("ARC2D", cfg, 0.02);
}

TEST(FastPathIdentity, TimelineMatchesEventForEvent)
{
    // With the timeline recorder subscribed, the bus has a second
    // resource_wait listener, so the fast path must either replay
    // waits exactly or refuse to engage — either way the recorded
    // stream has to match the slow path event for event.
    const auto app = apps::perfectAppByName("FLO52");
    core::RunOptions o;
    o.scale = 0.02;
    o.collectTimeline = true;
    o.fastPath = true;
    const auto fast = core::runExperiment(app, 8, o);
    o.fastPath = false;
    const auto slow = core::runExperiment(app, 8, o);
    ASSERT_GT(fast.timeline.size(), 0u);
    expectBitIdentical(fast, slow);
    expectSameTimeline(fast, slow);
}

TEST(FastPathIdentity, EngagesAndLearnsPatterns)
{
    const auto app = apps::perfectAppByName("FLO52");
    const auto r = runPoint(app, 8, true, 0.04);
    EXPECT_GT(r.fastPathHits, 0u);
    EXPECT_GT(r.fastPathPatterns, 0u);
    // Determinism: the cache is per-machine, so a repeat run learns
    // and replays the exact same patterns.
    const auto r2 = runPoint(app, 8, true, 0.04);
    EXPECT_EQ(r.fastPathHits, r2.fastPathHits);
    EXPECT_EQ(r.fastPathPatterns, r2.fastPathPatterns);
    expectBitIdentical(r, r2);
}

// ---------------------------------------------------------------
// Fault-injected run: the fast path must bail, results must match
// ---------------------------------------------------------------

apps::AppModel
gmFaultApp()
{
    apps::AppModel app;
    app.name = "fastpath-fault";
    app.steps = 2;
    apps::SerialSpec s;
    s.compute = 2000;
    s.pages = 1;
    app.phases.push_back(s);
    apps::LoopSpec l;
    l.kind = apps::LoopKind::sdoall;
    l.outerIters = 8;
    l.innerIters = 16;
    l.computePerIter = 400;
    l.words = 64;
    l.burstLen = 32;
    l.regionWords = 1 << 14;
    app.phases.push_back(l);
    return app;
}

TEST(FastPathIdentity, FaultedRunBailsAndStaysIdentical)
{
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("module:7:stuck"));
    o.gmTimeout = 30000;
    o.fastPath = true;
    const auto fast = core::runExperiment(gmFaultApp(), 8, o);
    o.fastPath = false;
    const auto slow = core::runExperiment(gmFaultApp(), 8, o);

    // Faulted memory invalidates the pattern preconditions wholesale;
    // the engagement gate must refuse every access.
    EXPECT_EQ(fast.fastPathHits, 0u);
    EXPECT_EQ(fast.fastPathPatterns, 0u);
    EXPECT_EQ(fast.status, sim::RunStatus::Faulted);
    expectBitIdentical(fast, slow);
    ASSERT_EQ(fast.faultLog.events().size(), slow.faultLog.events().size());
    for (std::size_t i = 0; i < fast.faultLog.events().size(); ++i)
        EXPECT_TRUE(fast.faultLog.events()[i] == slow.faultLog.events()[i])
            << "fault log diverges at event " << i;
}

// ---------------------------------------------------------------
// Retry-backoff overflow regression (src/hw/ce.cc)
// ---------------------------------------------------------------

TEST(BackoffOverflow, HugeBackoffSaturatesInsteadOfWrapping)
{
    // A backoff of 2^60 doubled per attempt overflows the 64-bit tick
    // on the 4th retry. Before the satShl/satAdd hardening the shift
    // wrapped to a tiny (or zero) wait, so the CE spun through its
    // retries in simulated microseconds and the run finished Faulted
    // as if the backoff were small. With saturation the retry waits
    // pin near the tick ceiling: the CE is still waiting when the
    // event budget runs out, and the run surfaces as EventLimit.
    core::RunOptions o;
    o.faults.push_back(parseFaultSpec("module:7:stuck"));
    o.gmTimeout = 100;
    o.gmRetryBackoff = Tick(1) << 60;
    o.gmMaxRetries = 6;
    o.eventLimit = 200'000;

    core::RunResult r;
    ASSERT_NO_THROW(r = core::runExperiment(gmFaultApp(), 8, o));
    EXPECT_EQ(r.status, sim::RunStatus::EventLimit);
    EXPECT_GE(r.faultLog.count(fault::FaultKind::access_timeout), 1u);
    // No retry sequence may complete: a wrapped wait would race
    // through all 6 attempts and take the degraded fallback.
    EXPECT_EQ(r.faultLog.count(fault::FaultKind::access_abandoned), 0u);
    EXPECT_EQ(r.accessesDegraded, 0u);

    // The clamped schedule is deterministic.
    core::RunResult r2;
    ASSERT_NO_THROW(r2 = core::runExperiment(gmFaultApp(), 8, o));
    EXPECT_EQ(r.ct, r2.ct);
    EXPECT_EQ(r.eventsExecuted, r2.eventsExecuted);
    EXPECT_EQ(r.faultLog.events().size(), r2.faultLog.events().size());
}

TEST(BackoffOverflow, MaxRetriesBeyondShiftWidthRejected)
{
    core::RunOptions o;
    o.gmTimeout = 100;
    o.gmMaxRetries = 40; // backoff doubling would exceed 64 bits
    EXPECT_THROW(core::runExperiment(gmFaultApp(), 8, o),
                 sim::ConfigError);
}

// ---------------------------------------------------------------
// Network-level contended replay
// ---------------------------------------------------------------

/** Two identical machines' networks, one with the fast path off. */
struct TwinNets
{
    mem::AddressMap map{32, 4};
    mem::GlobalMemory gmemA{map};
    mem::GlobalMemory gmemB{map};
    net::Network fast{4, 8, gmemA};
    net::Network slow{4, 8, gmemB};

    TwinNets() { slow.setFastPath(false); }
};

TEST(FastPathNetwork, ContendedConvoyRepliesBitIdentical)
{
    // Drive the same convoy-shaped script through both networks:
    // several CEs issue the same burst shape back to back, so later
    // issues see non-zero queue offsets — the contended patterns, not
    // just the idle one, must replay exactly.
    TwinNets t;
    for (int round = 0; round < 64; ++round) {
        const Tick base = static_cast<Tick>(round) * 40;
        for (int ce = 0; ce < 4; ++ce) {
            const auto a =
                t.fast.burst(base, ce % 2, ce, 16 * ce, 32);
            const auto b =
                t.slow.burst(base, ce % 2, ce, 16 * ce, 32);
            ASSERT_EQ(a.complete, b.complete)
                << "round " << round << " ce " << ce;
            ASSERT_EQ(a.unloaded, b.unloaded);
        }
    }
    // Mix in contended RMWs against one hot word.
    for (int i = 0; i < 64; ++i) {
        const Tick when = 2000 + static_cast<Tick>(i) * 3;
        const auto inc = [](std::uint64_t v) { return v + 1; };
        const auto a = t.fast.rmw(when, 0, i % 8, 5, inc);
        const auto b = t.slow.rmw(when, 0, i % 8, 5, inc);
        ASSERT_EQ(a.complete, b.complete) << "rmw " << i;
        ASSERT_EQ(a.oldValue, b.oldValue);
    }
    EXPECT_EQ(t.gmemA.peek(5), t.gmemB.peek(5));
    EXPECT_EQ(t.fast.totalWaitTicks(), t.slow.totalWaitTicks());
    // The convoy repeats the same few queue states, so the replay
    // must actually have engaged (and on contended vectors, not
    // merely the idle machine).
    EXPECT_GT(t.fast.fastStats().hits(), 0u);
    EXPECT_GT(t.fast.fastPatterns(), 0u);
    EXPECT_EQ(t.slow.fastStats().hits(), 0u);
}

TEST(FastPathNetwork, DontCareOffsetsCollapseOntoFewPatterns)
{
    // Issue burst pairs at a sweep of spacings d. For d past the
    // shared ports' residual service but before their horizons fully
    // drain, the second burst sees offsets that are non-zero yet
    // provably harmless (each at or below the shape's idle first
    // arrival at that server). Canonicalization zeroes them before
    // the cache lookup, so that whole band of spacings lands on the
    // same canonical pattern instead of learning one per spacing —
    // while staying bit-identical to the slow path.
    TwinNets t;
    unsigned rounds = 0;
    for (Tick d = 30; d < 70; ++d, ++rounds) {
        // Each spacing twice: patterns build on the second sighting.
        for (int rep = 0; rep < 2; ++rep) {
            const Tick base = (d * 2 + static_cast<Tick>(rep)) * 100000;
            const auto a0 = t.fast.burst(base, 0, 0, 0, 32);
            const auto b0 = t.slow.burst(base, 0, 0, 0, 32);
            ASSERT_EQ(a0.complete, b0.complete) << "lead, spacing " << d;
            const auto a1 = t.fast.burst(base + d, 0, 1, 0, 32);
            const auto b1 = t.slow.burst(base + d, 0, 1, 0, 32);
            ASSERT_EQ(a1.complete, b1.complete) << "spacing " << d;
            ASSERT_EQ(a1.unloaded, b1.unloaded);
        }
    }
    EXPECT_EQ(t.fast.totalWaitTicks(), t.slow.totalWaitTicks());
    EXPECT_GT(t.fast.fastStats().hits(), 0u);
    // Without canonicalization every spacing whose residuals had not
    // fully drained would be a distinct learned pattern (~one per
    // spacing). With it, the harmless band collapses onto the idle
    // vector: far fewer patterns than spacings swept.
    EXPECT_LT(t.fast.fastPatterns(), rounds / 2);
}

TEST(FastPathNetwork, DisabledPathReportsOnlyMisses)
{
    TwinNets t;
    t.fast.setFastPath(false);
    for (int i = 0; i < 8; ++i)
        t.fast.burst(0, 0, 0, 0, 16);
    EXPECT_EQ(t.fast.fastStats().hits(), 0u);
    EXPECT_EQ(t.fast.fastStats().misses(), 8u);
}

// ---------------------------------------------------------------
// The pattern store's flat tables and the wait condensation
// ---------------------------------------------------------------

/** A recognisable pattern: relComplete tags which store call made it. */
net::BurstPattern
taggedPattern(const net::ShapeInfo &sh, Tick tag)
{
    net::BurstPattern p;
    p.relComplete = tag;
    p.servers.resize(sh.servers.size());
    return p;
}

TEST(FastPathStore, ForgedHashCollisionNeverReturnsTheOtherPattern)
{
    mem::AddressMap map{32, 4};
    net::BurstPatternCache cache(map);
    net::ShapeInfo &sh = cache.shape(0, 32, false);
    const std::size_t n = sh.servers.size();
    ASSERT_GT(n, 1u);

    // Three distinct canonical vectors, all given the same hash.
    constexpr std::uint64_t forged = 0x1234;
    std::vector<Tick> a(n, 0), b(n, 0), c(n, 0);
    a[0] = 5;
    b[1] = 5;
    c[0] = 7;
    cache.store(sh, a, forged, taggedPattern(sh, 111));
    EXPECT_EQ(cache.find(sh, b, forged), nullptr);
    cache.store(sh, b, forged, taggedPattern(sh, 222));

    ASSERT_NE(cache.find(sh, a, forged), nullptr);
    ASSERT_NE(cache.find(sh, b, forged), nullptr);
    EXPECT_EQ(cache.find(sh, a, forged)->relComplete, 111u);
    EXPECT_EQ(cache.find(sh, b, forged)->relComplete, 222u);
    EXPECT_EQ(cache.find(sh, c, forged), nullptr);
    // The true hash of a key that was filed under a forged one finds
    // nothing: lookups trust the caller's single hash.
    EXPECT_EQ(cache.find(sh, a, net::fnvHash(a)), nullptr);
    EXPECT_EQ(cache.patternsBuilt(), 2u);

    // Family keys (one element longer: the mask) behave the same.
    std::vector<Tick> ka(n + 1, 0), kb(n + 1, 0);
    ka[n] = 1;
    kb[n] = 2;
    net::ParamPattern pa, pb;
    pa.pat = taggedPattern(sh, 333);
    pb.pat = taggedPattern(sh, 444);
    cache.storeParam(sh, ka, forged, std::move(pa));
    cache.storeParam(sh, kb, forged, std::move(pb));
    const net::ParamFamily *fa = cache.findParam(sh, ka, forged);
    const net::ParamFamily *fb = cache.findParam(sh, kb, forged);
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    ASSERT_EQ(fa->size(), 1u);
    ASSERT_EQ(fb->size(), 1u);
    EXPECT_EQ(fa->front().pat.relComplete, 333u);
    EXPECT_EQ(fb->front().pat.relComplete, 444u);
}

TEST(FastPathStore, TableCollisionsSurviveGrowth)
{
    // Many keys under a handful of hashes: long probe chains that
    // every doubling has to rebuild without losing or mixing entries.
    net::FlatKeyTable<int> t(3);
    for (int i = 0; i < 2000; ++i) {
        const Tick key[3] = {Tick(i), Tick(i) * 7, 1};
        t.findOrInsert(key, static_cast<std::uint64_t>(i % 5)) = i;
    }
    EXPECT_EQ(t.size(), 2000u);
    for (int i = 0; i < 2000; ++i) {
        const Tick key[3] = {Tick(i), Tick(i) * 7, 1};
        const int *v = t.find(key, static_cast<std::uint64_t>(i % 5));
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, i);
        EXPECT_EQ(t.find(key, static_cast<std::uint64_t>(i % 5 + 1)),
                  nullptr);
        // Re-inserting finds the entry instead of duplicating it.
        EXPECT_EQ(t.findOrInsert(key, static_cast<std::uint64_t>(i % 5)),
                  i);
    }
    EXPECT_EQ(t.size(), 2000u);
}

/** The multiplicative inverse of an odd 64-bit constant (Newton). */
std::uint64_t
inverseOdd(std::uint64_t a)
{
    std::uint64_t x = a;
    for (int i = 0; i < 6; ++i)
        x *= 2 - a * x;
    return x;
}

TEST(FastPathStore, ProbeChainCollisionsKeepSeparateSightings)
{
    // Keys whose mixed hashes differ only in the lowest bit share a
    // home slot at every table size: one probe chain.
    const std::uint64_t inv = inverseOdd(0x9e3779b97f4a7c15ULL);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 8; ++i)
        keys.push_back((0xabcdef0000000000ULL + i) * inv);
    for (unsigned bits = 1; bits <= 20; ++bits)
        for (const std::uint64_t k : keys)
            ASSERT_EQ(net::flatHome(k, bits), net::flatHome(keys[0], bits));

    net::SightingTable t;
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t r = 0; r <= i; ++r)
            EXPECT_EQ(t.bump(keys[i]), r + 1);
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(t.count(keys[i]), i + 1);
    EXPECT_EQ(t.size(), keys.size());
    EXPECT_EQ(t.count(keys.back() + inv), 0u);
}

TEST(FastPathStore, SightingGrowthKeepsSecondSightingSemantics)
{
    // First sightings of many keys force repeated doublings; every
    // key must still be at exactly one sighting afterwards, so its
    // next bump is its second — the recording trigger.
    net::SightingTable t;
    constexpr std::uint64_t n = 50'000;
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(t.bump(i * 0x100000001ULL), 1u) << i;
    EXPECT_EQ(t.size(), n);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(t.bump(i * 0x100000001ULL), 2u) << i;
    EXPECT_EQ(t.size(), n);

    // Through the cache: a vector earns recording on its second
    // sighting, however many other vectors were sighted in between.
    mem::AddressMap map{32, 4};
    net::BurstPatternCache cache(map);
    const net::ShapeInfo &sh = cache.shape(4, 16, false);
    std::vector<Tick> v(sh.servers.size(), 0);
    v[0] = 99;
    EXPECT_FALSE(cache.shouldRecord(sh, v, net::fnvHash(v)));
    for (Tick i = 0; i < 5000; ++i) {
        std::vector<Tick> w(sh.servers.size(), i + 1000);
        EXPECT_FALSE(cache.shouldRecord(sh, w, net::fnvHash(w)));
    }
    EXPECT_TRUE(cache.shouldRecord(sh, v, net::fnvHash(v)));
}

TEST(FastPathStore, RefusesShapesBeyondThirtyTwoBitCounts)
{
    // A pattern's request and wait counts are 32-bit, so a shape
    // serving more often than that is never recorded, exact or as a
    // family; no sighting is even counted for it.
    mem::AddressMap map{32, 4};
    net::BurstPatternCache cache(map);
    net::ShapeInfo sh = cache.shape(0, 32, false);
    const std::size_t n = sh.servers.size();
    std::vector<Tick> v(n, 0), k(n + 1, 0);
    k[n] = 1;
    sh.serves = net::BurstPatternCache::max_shape_serves + 1;
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(cache.shouldRecord(sh, v, net::fnvHash(v)));
        EXPECT_FALSE(cache.shouldRecordParam(sh, k, net::fnvHash(k)));
    }
    // At the bound itself recording engages on the second sighting.
    sh.serves = net::BurstPatternCache::max_shape_serves;
    EXPECT_FALSE(cache.shouldRecord(sh, v, net::fnvHash(v)));
    EXPECT_TRUE(cache.shouldRecord(sh, v, net::fnvHash(v)));
}

static_assert(sizeof(net::PatternServer) == 16,
              "a pattern keeps only wait sum and horizon per server");
static_assert(sizeof(net::PatternWaits) == 16,
              "condensed waits pack count and class into one word");

/** (requests, busy ticks, wait ticks) of one server. */
struct ServeTotals
{
    std::uint64_t requests = 0;
    Tick busy = 0;
    Tick wait = 0;
};

/** Every server of a network and its memory, by (bank name, port):
 *  crossbar ports under their crossbar's name, modules under
 *  "module". */
using ServeMap = std::map<std::pair<std::string, unsigned>, ServeTotals>;

ServeMap
serveTotals(const net::Network &nw, const mem::GlobalMemory &gm)
{
    ServeMap m;
    const auto add = [&m](const std::string &bank, unsigned port,
                          const sim::FifoServer &s) {
        m[{bank, port}] = ServeTotals{s.stats().requests(),
                                      s.stats().busyTicks(),
                                      s.stats().waitTicks()};
    };
    nw.visitPorts([&](const net::PortSite &site, const sim::FifoServer &s) {
        add(site.bankName, site.portIdx, s);
    });
    for (unsigned i = 0; i < gm.map().numModules(); ++i)
        add("module", i, gm.moduleServer(i));
    return m;
}

/** The ServeMap key a shape's server resolves to for an access
 *  issued by CE @p ce of cluster @p c (Network::fastServer's
 *  mapping, spelled with the crossbars' display names). */
std::pair<std::string, unsigned>
serveKey(const net::ServerRef &r, unsigned c, unsigned ce)
{
    const std::string idx = std::to_string(r.idx);
    const std::string cl = std::to_string(c);
    switch (r.bank) {
    case net::FastBank::stage1:
        return {"stage1.cluster" + cl, r.idx};
    case net::FastBank::stage2:
        return {"stage2.group" + idx, c};
    case net::FastBank::returnA:
        return {"returnA.group" + idx, c};
    case net::FastBank::returnB:
        return {"returnB.cluster" + cl, ce};
    case net::FastBank::module:
    default:
        return {"module", r.idx};
    }
}

TEST(FastPathStore, ShapeConstantsMatchSlowPathServes)
{
    // A pattern stores no request counts or busy ticks: replay takes
    // them from the shape (ShapeInfo::requests/busy, from the idle
    // probe). Check that the slow path's serves agree, on an idle
    // machine and on one whose queues are already backed up, and that
    // the shape's server list is exactly the set of servers touched.
    struct Geometry
    {
        unsigned clusters, ces, modules;
    };
    const auto inc = [](std::uint64_t v) { return v + 1; };
    Tick contendedWait = 0;
    for (const Geometry g : {Geometry{4, 8, 32}, Geometry{8, 4, 64},
                             Geometry{1, 16, 32}}) {
        const mem::AddressMap map{g.modules, 4};
        net::BurstPatternCache cache(map);
        const unsigned c = g.clusters - 1;
        const unsigned ce = g.ces / 2;
        for (unsigned m = 0; m < g.modules; ++m) {
            // Same home module as address m, a few interleave rounds up.
            const sim::Addr addr = m + 3 * g.modules;
            for (const unsigned words : {1u, 3u, 4u, 5u, 64u, 256u, 0u}) {
                const bool rmw = words == 0;
                const net::ShapeInfo &sh =
                    cache.shape(m, rmw ? 1 : words, rmw);
                ASSERT_EQ(sh.requests.size(), sh.servers.size());
                ASSERT_EQ(sh.busy.size(), sh.servers.size());
                for (const bool contended : {false, true}) {
                    SCOPED_TRACE(std::to_string(g.clusters) + "x" +
                                 std::to_string(g.ces) + "/" +
                                 std::to_string(g.modules) + " module " +
                                 std::to_string(m) + " words " +
                                 std::to_string(words) +
                                 (contended ? " contended" : " idle"));
                    mem::GlobalMemory gm(map);
                    net::Network nw(g.clusters, g.ces, gm);
                    nw.setFastPath(false);
                    constexpr Tick start = 1000;
                    if (contended) {
                        // Back up every bank the access will cross:
                        // other CEs' bursts over the same modules, the
                        // issuing CE's own earlier burst, and an RMW
                        // queued at the home module.
                        for (unsigned k = 0; k < 4; ++k)
                            nw.burst(start, k % g.clusters,
                                     static_cast<int>((ce + 1 + k) % g.ces),
                                     addr + k, 64);
                        nw.burst(start, c, static_cast<int>(ce), addr, 32);
                        nw.rmw(start, 0, 0, addr, inc);
                    }
                    const ServeMap before = serveTotals(nw, gm);
                    if (rmw)
                        nw.rmw(start, c, static_cast<int>(ce), addr, inc);
                    else
                        nw.burst(start, c, static_cast<int>(ce), addr,
                                 words);
                    ServeMap delta = serveTotals(nw, gm);
                    for (auto &[key, d] : delta) {
                        const ServeTotals &b = before.at(key);
                        d = ServeTotals{d.requests - b.requests,
                                        d.busy - b.busy, d.wait - b.wait};
                    }
                    std::uint64_t shapeServes = 0;
                    for (std::size_t j = 0; j < sh.servers.size(); ++j) {
                        const auto key = serveKey(sh.servers[j], c, ce);
                        SCOPED_TRACE(key.first + " port " +
                                     std::to_string(key.second));
                        const ServeTotals &d = delta.at(key);
                        EXPECT_EQ(d.requests, sh.requests[j]);
                        EXPECT_EQ(d.busy, sh.busy[j]);
                        EXPECT_GT(sh.requests[j], 0u);
                        shapeServes += sh.requests[j];
                        if (contended)
                            contendedWait += d.wait;
                        delta.erase(key);
                    }
                    EXPECT_EQ(sh.serves, shapeServes);
                    for (const auto &[key, d] : delta)
                        EXPECT_EQ(d.requests, 0u)
                            << "untouched " << key.first << " port "
                            << key.second;
                }
            }
        }
    }
    // The pre-loaded queues really were in the way.
    EXPECT_GT(contendedWait, 0u);
}

/** Reference condensation: sort, then run-length encode equal
 *  (class, wait) pairs. */
std::vector<net::PatternWaits>
sortReference(std::vector<net::WaitCondenser::Sample> samples)
{
    std::sort(samples.begin(), samples.end());
    std::vector<net::PatternWaits> out;
    for (std::size_t i = 0; i < samples.size();) {
        std::size_t k = i + 1;
        while (k < samples.size() && samples[k] == samples[i])
            ++k;
        out.push_back(net::PatternWaits{samples[i].second,
                                        static_cast<std::uint32_t>(k - i),
                                        samples[i].first});
        i = k;
    }
    return out;
}

/** Condense @p samples with @p condenser and compare the result, as
 *  a multiset, with the sort reference. */
void
expectCondensesLikeReference(
    net::WaitCondenser &condenser,
    const std::vector<net::WaitCondenser::Sample> &samples)
{
    std::vector<net::PatternWaits> got;
    condenser.condense(samples, got);
    std::sort(got.begin(), got.end(),
              [](const net::PatternWaits &x, const net::PatternWaits &y) {
                  return std::pair(x.cls, x.wait) < std::pair(y.cls, y.wait);
              });
    const auto want = sortReference(samples);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].cls, want[i].cls);
        ASSERT_EQ(got[i].wait, want[i].wait);
        ASSERT_EQ(got[i].count, want[i].count);
    }
}

TEST(FastPathStore, CondensationMatchesSortReference)
{
    const obs::ResourceClass classes[] = {
        obs::ResourceClass::stage1_port, obs::ResourceClass::stage2_port,
        obs::ResourceClass::memory_module,
        obs::ResourceClass::return_a_port,
        obs::ResourceClass::return_b_port};
    constexpr Tick near_max = net::BurstPatternCache::max_offset;
    const Tick edge_waits[] = {0, 1, near_max - 1, near_max, near_max + 1};

    std::mt19937_64 rng(20260417);
    const auto randomList = [&](std::size_t len, Tick spread) {
        std::vector<net::WaitCondenser::Sample> samples;
        for (std::size_t i = 0; i < len; ++i) {
            const auto cls = classes[rng() % 5];
            const Tick w = rng() % 4 == 0 ? edge_waits[rng() % 5]
                                          : rng() % spread;
            samples.emplace_back(cls, w);
        }
        return samples;
    };

    net::WaitCondenser condenser; // reused: stale slots must not leak
    std::size_t longest = 0;
    for (int round = 0; round < 400; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        // Lengths from empty to far past any earlier table size; the
        // first rounds are short, so later ones force regrowth.
        const std::size_t len = round < 10 ? round : rng() % 1500;
        longest = std::max(longest, len);
        // Few distinct waits (long runs of repeats), every wait shared
        // by all five classes, or nearly all waits distinct.
        const Tick spread = round % 3 == 0   ? 4
                            : round % 3 == 1 ? len / 5 + 1
                                             : Tick(1) << 20;
        expectCondensesLikeReference(condenser, randomList(len, spread));
    }
    EXPECT_GT(longest, 1000u);

    // Fresh condensers keep their tables tiny, the only place where
    // equal waits of different classes share a probe chain: this is
    // what pins the class half of the key compare.
    for (int round = 0; round < 3000; ++round) {
        SCOPED_TRACE("small round " + std::to_string(round));
        net::WaitCondenser fresh;
        expectCondensesLikeReference(fresh, randomList(2 + rng() % 14, 3));
    }
}

} // namespace
