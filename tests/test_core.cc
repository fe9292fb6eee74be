/**
 * @file
 * Tests for the characterization core: experiment runner, breakdown
 * computations, parallel-loop concurrency, contention estimation
 * and table formatting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/perfect.hh"
#include "core/breakdown.hh"
#include "core/concurrency.hh"
#include "core/contention.hh"
#include "core/experiment.hh"
#include "core/table.hh"

namespace
{

using namespace cedar;
using cedar::os::TimeCat;
using cedar::os::UserAct;

apps::AppModel
testApp()
{
    apps::AppModel app;
    app.name = "core-test";
    app.steps = 4;
    apps::SerialSpec s;
    s.compute = 8000;
    s.pages = 2;
    app.phases.push_back(s);
    apps::LoopSpec l;
    l.kind = apps::LoopKind::sdoall;
    l.outerIters = 9;
    l.innerIters = 24;
    l.computePerIter = 600;
    l.words = 96;
    l.burstLen = 32;
    l.regionWords = 1 << 15;
    app.phases.push_back(l);
    apps::LoopSpec x;
    x.kind = apps::LoopKind::xdoall;
    x.outerIters = 48;
    x.computePerIter = 900;
    x.words = 48;
    x.burstLen = 48;
    x.regionWords = 1 << 15;
    app.phases.push_back(x);
    return app;
}

struct CoreFixture : ::testing::Test
{
    static const core::RunResult &uni()
    {
        static const core::RunResult r =
            core::runExperiment(testApp(), 1);
        return r;
    }
    static const core::RunResult &multi()
    {
        static core::RunResult r = [] {
            core::RunOptions o;
            o.collectTrace = true;
            return core::runExperiment(testApp(), 32, o);
        }();
        return r;
    }
};

TEST_F(CoreFixture, RunResultFieldsConsistent)
{
    const auto &r = multi();
    EXPECT_EQ(r.nprocs, 32u);
    EXPECT_EQ(r.nClusters, 4u);
    EXPECT_EQ(r.clusterAcct.size(), 4u);
    EXPECT_EQ(r.ceAcct.size(), 32u);
    EXPECT_EQ(r.windows.size(), 4u);
    EXPECT_EQ(r.clusterConcurrency.size(), 4u);
    EXPECT_GT(r.ct, 0u);
    EXPECT_DOUBLE_EQ(r.seconds(),
                     static_cast<double>(r.ct) / r.clockHz);
    EXPECT_GT(r.globalWords, 0u);
    EXPECT_FALSE(r.trace.empty());
}

TEST_F(CoreFixture, MultiprocessorIsFasterButNotSuperlinear)
{
    const double speedup = uni().seconds() / multi().seconds();
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 32.0);
}

TEST_F(CoreFixture, ConcurrencyExceedsSpeedup)
{
    // Paper result (2): active processors do overhead work too.
    const double speedup = uni().seconds() / multi().seconds();
    EXPECT_GT(multi().machineConcurrency, speedup);
    EXPECT_LE(multi().machineConcurrency, 32.0);
}

TEST_F(CoreFixture, CtBreakdownSumsToOneHundredPercent)
{
    for (unsigned c = 0; c < multi().nClusters; ++c) {
        const auto b = core::ctBreakdown(multi(), c);
        EXPECT_NEAR(b.userPct + b.systemPct + b.interruptPct + b.kspinPct,
                    100.0, 0.5)
            << "cluster " << c;
        EXPECT_GT(b.osTotalPct(), 0.0);
    }
    const auto t = core::ctBreakdownTotal(multi());
    EXPECT_NEAR(t.userPct + t.systemPct + t.interruptPct + t.kspinPct,
                100.0, 0.5);
}

TEST_F(CoreFixture, OsActivityTableCoversAllActivities)
{
    const auto rows = core::osActivityTable(multi());
    EXPECT_EQ(rows.size(), static_cast<std::size_t>(os::OsAct::NUM));
    double total = 0;
    for (const auto &row : rows) {
        EXPECT_GE(row.pctOfCt, 0.0);
        total += row.pctOfCt;
    }
    const auto b = core::ctBreakdownTotal(multi());
    EXPECT_NEAR(total, b.systemPct + b.interruptPct, 0.2);
}

TEST_F(CoreFixture, UserBreakdownLeadTaskView)
{
    const auto main_task = core::userBreakdown(multi(), 0);
    EXPECT_GT(main_task.in(UserAct::serial), 0u);
    EXPECT_GT(main_task.in(UserAct::iter_exec), 0u);
    EXPECT_GT(main_task.in(UserAct::barrier_wait), 0u);
    EXPECT_EQ(main_task.in(UserAct::helper_wait), 0u);

    const auto helper = core::userBreakdown(multi(), 1);
    EXPECT_GT(helper.in(UserAct::helper_wait), 0u);
    EXPECT_EQ(helper.in(UserAct::serial), 0u);

    // Percentages of CT are sane and sum below 100 + overshoot.
    double sum = 0;
    for (int i = 0; i < static_cast<int>(UserAct::NUM); ++i)
        sum += main_task.pctOf(static_cast<UserAct>(i), multi().ct);
    EXPECT_GT(sum, 50.0);
    EXPECT_LT(sum, 101.0);
}

TEST_F(CoreFixture, TraceBreakdownAgreesWithLedger)
{
    // The cedarhpm path and the "Q" ledger path measure the same
    // quantities through different mechanisms; they must agree to
    // within a few percent of CT (trace intervals include wake
    // latencies and unsubtracted CPI overlays).
    const auto from_trace = core::userBreakdownFromTrace(multi());
    ASSERT_EQ(from_trace.size(), multi().nClusters);
    const double tol = 0.06 * static_cast<double>(multi().ct);
    for (unsigned c = 0; c < multi().nClusters; ++c) {
        const auto ledger = core::userBreakdown(multi(), c);
        for (int i = 0; i < static_cast<int>(UserAct::NUM); ++i) {
            const auto act = static_cast<UserAct>(i);
            EXPECT_NEAR(static_cast<double>(from_trace[c].in(act)),
                        static_cast<double>(ledger.in(act)), tol)
                << "cluster " << c << " act " << toString(act);
        }
    }
}

TEST_F(CoreFixture, ParallelConcurrencyWithinClusterBounds)
{
    for (unsigned c = 0; c < multi().nClusters; ++c) {
        const auto t = core::taskConcurrency(multi(), c);
        EXPECT_GE(t.pf, 0.0);
        EXPECT_LE(t.pf, 1.0);
        EXPECT_GE(t.parConcurr, 1.0);
        EXPECT_LE(t.parConcurr, 8.0);
        EXPECT_GT(t.avgConcurr, 0.0);
    }
    EXPECT_LE(core::totalParConcurrency(multi()), 32.0);
}

TEST_F(CoreFixture, UniprocessorHasUnitConcurrency)
{
    const auto t = core::taskConcurrency(uni(), 0);
    EXPECT_NEAR(t.avgConcurr, 1.0, 0.05);
    EXPECT_NEAR(t.parConcurr, 1.0, 0.1);
}

TEST_F(CoreFixture, ContentionEstimatePositiveOnLoadedMachine)
{
    const auto e = core::estimateContention(multi(), uni());
    EXPECT_GT(e.tpActualSec, 0.0);
    EXPECT_GT(e.tpIdealSec, 0.0);
    EXPECT_GT(e.tpActualSec, e.tpIdealSec);
    EXPECT_GT(e.ovContPct, 0.0);
    EXPECT_LT(e.ovContPct, 60.0);
}

TEST_F(CoreFixture, SelfContentionIsNegligible)
{
    // Applying the method to the 1-processor run against itself:
    // T_p_actual == T_p_ideal by construction (par_concurr == 1).
    const auto e = core::estimateContention(uni(), uni());
    EXPECT_NEAR(e.ovContPct, 0.0, 2.0);
}

TEST_F(CoreFixture, GroundTruthContentionTracksEstimate)
{
    const double gt = core::groundTruthContentionPct(multi());
    EXPECT_GT(gt, 0.0);
    EXPECT_NEAR(core::groundTruthContentionPct(uni()), 0.0, 0.2);
}

TEST_F(CoreFixture, DecompositionClosesToOneHundredPercent)
{
    const auto d = core::decomposeCompletionTime(multi(), uni());
    EXPECT_NEAR(d.explainedPct() + d.residualPct, 100.0, 1e-9);
    EXPECT_GT(d.serialPct, 0.0);
    EXPECT_GT(d.loopIdealPct, 0.0);
    EXPECT_GT(d.contentionPct, 0.0);
    // The named components must explain the bulk of the run.
    EXPECT_LT(d.residualPct, 25.0);
    EXPECT_GT(d.residualPct, -5.0);
}

TEST_F(CoreFixture, DecompositionOfUniprocessorIsLoopPlusSerial)
{
    const auto d = core::decomposeCompletionTime(uni(), uni());
    EXPECT_NEAR(d.contentionPct, 0.0, 2.0);
    EXPECT_NEAR(d.barrierPct, 0.0, 0.2);
    EXPECT_GT(d.serialPct + d.loopIdealPct, 80.0);
}

TEST(ExperimentRunner, SweepRunsAllConfigs)
{
    core::RunOptions o;
    o.scale = 0.5;
    const auto sweep =
        core::runSweep(testApp(), o, {1, 8, 32});
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].nprocs, 1u);
    EXPECT_EQ(sweep[2].nprocs, 32u);
    EXPECT_GT(sweep[0].ct, sweep[2].ct);
}

TEST(ExperimentRunner, ScaleShrinksWork)
{
    core::RunOptions small;
    small.scale = 0.25;
    const auto a = core::runExperiment(testApp(), 8, small);
    const auto b = core::runExperiment(testApp(), 8);
    EXPECT_LT(a.ct, b.ct);
}

// ----- parallel sweep: bit-identical to the serial path -----

void
expectAccountEq(const os::CeAccount &a, const os::CeAccount &b,
                const std::string &what)
{
    EXPECT_EQ(a.cat, b.cat) << what;
    EXPECT_EQ(a.osAct, b.osAct) << what;
    EXPECT_EQ(a.userAct, b.userAct) << what;
}

/** Every field of RunResult, compared exactly. */
void
expectRunResultsIdentical(const core::RunResult &a,
                          const core::RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    ASSERT_EQ(a.nprocs, b.nprocs);
    EXPECT_EQ(a.nClusters, b.nClusters);
    EXPECT_EQ(a.cesPerCluster, b.cesPerCluster);
    EXPECT_EQ(a.clockHz, b.clockHz);
    EXPECT_EQ(a.ct, b.ct);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.faultLog.events(), b.faultLog.events());
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.accessesDegraded, b.accessesDegraded);
    EXPECT_EQ(a.parkedCes, b.parkedCes);
    ASSERT_EQ(a.clusterAcct.size(), b.clusterAcct.size());
    for (std::size_t i = 0; i < a.clusterAcct.size(); ++i)
        expectAccountEq(a.clusterAcct[i], b.clusterAcct[i],
                        "cluster " + std::to_string(i));
    expectAccountEq(a.totalAcct, b.totalAcct, "total");
    ASSERT_EQ(a.ceAcct.size(), b.ceAcct.size());
    for (std::size_t i = 0; i < a.ceAcct.size(); ++i)
        expectAccountEq(a.ceAcct[i], b.ceAcct[i],
                        "ce " + std::to_string(i));
    EXPECT_EQ(a.clusterConcurrency, b.clusterConcurrency);
    EXPECT_EQ(a.machineConcurrency, b.machineConcurrency);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].sxWall, b.windows[i].sxWall);
        EXPECT_EQ(a.windows[i].mcWall, b.windows[i].mcWall);
    }
    EXPECT_EQ(a.rtlStats.loopsPosted, b.rtlStats.loopsPosted);
    EXPECT_EQ(a.rtlStats.sdoallLoops, b.rtlStats.sdoallLoops);
    EXPECT_EQ(a.rtlStats.xdoallLoops, b.rtlStats.xdoallLoops);
    EXPECT_EQ(a.rtlStats.mcLoops, b.rtlStats.mcLoops);
    EXPECT_EQ(a.rtlStats.cdoacrossLoops, b.rtlStats.cdoacrossLoops);
    EXPECT_EQ(a.rtlStats.outerIters, b.rtlStats.outerIters);
    EXPECT_EQ(a.rtlStats.bodiesExecuted, b.rtlStats.bodiesExecuted);
    EXPECT_EQ(a.rtlStats.helperJoins, b.rtlStats.helperJoins);
    EXPECT_EQ(a.rtlStats.stepsRun, b.rtlStats.stepsRun);
    EXPECT_EQ(a.osStats.cpis, b.osStats.cpis);
    EXPECT_EQ(a.osStats.ctxSwitches, b.osStats.ctxSwitches);
    EXPECT_EQ(a.osStats.clusterSyscalls, b.osStats.clusterSyscalls);
    EXPECT_EQ(a.osStats.globalSyscalls, b.osStats.globalSyscalls);
    EXPECT_EQ(a.osStats.asts, b.osStats.asts);
    EXPECT_EQ(a.osStats.ioBlocks, b.osStats.ioBlocks);
    EXPECT_EQ(a.seqFaults, b.seqFaults);
    EXPECT_EQ(a.concFaults, b.concFaults);
    EXPECT_EQ(a.ceQueueStall, b.ceQueueStall);
    EXPECT_EQ(a.resourceWait, b.resourceWait);
    EXPECT_EQ(a.globalWords, b.globalWords);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.peakPending, b.peakPending);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].when, b.trace[i].when);
        EXPECT_EQ(a.trace[i].arg, b.trace[i].arg);
        EXPECT_EQ(a.trace[i].event, b.trace[i].event);
        EXPECT_EQ(a.trace[i].ce, b.trace[i].ce);
    }
}

TEST(ParallelSweep, BitIdenticalToSerial)
{
    core::RunOptions o;
    o.scale = 0.25;
    o.collectTrace = true;
    const std::vector<unsigned> procs = {1, 4, 8};
    const auto serial = core::runSweep(testApp(), o, procs, 1);
    const auto parallel = core::runSweep(testApp(), o, procs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(procs[i]) + "p");
        expectRunResultsIdentical(serial[i], parallel[i]);
    }
}

TEST(ParallelSweep, BitIdenticalToSerialWithFaultInjection)
{
    core::RunOptions o;
    o.scale = 0.25;
    o.faults.push_back(fault::parseFaultSpec("module:3:degrade:4x"));
    o.faults.push_back(fault::parseFaultSpec("ce:1:hiccup:p=1e-4"));
    const std::vector<unsigned> procs = {4, 8};
    const auto serial = core::runSweep(testApp(), o, procs, 1);
    const auto parallel = core::runSweep(testApp(), o, procs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(procs[i]) + "p");
        EXPECT_GT(serial[i].faultsInjected, 0u);
        expectRunResultsIdentical(serial[i], parallel[i]);
    }
}

TEST(ParallelSweep, DefaultJobsMatchesSerial)
{
    core::RunOptions o;
    o.scale = 0.25;
    const std::vector<unsigned> procs = {1, 8};
    const auto serial = core::runSweep(testApp(), o, procs, 1);
    const auto dflt = core::runSweep(testApp(), o, procs); // jobs = 0
    ASSERT_EQ(serial.size(), dflt.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectRunResultsIdentical(serial[i], dflt[i]);
}

TEST(ParallelSweep, ExceptionsPropagateFromWorkers)
{
    // An unsupported configuration throws inside a worker thread;
    // the caller must see the exception, not a crash or a silent
    // partial result. (3 procs is not a Cedar configuration.)
    core::RunOptions o;
    o.scale = 0.25;
    EXPECT_THROW(core::runSweep(testApp(), o, {1, 3, 4, 8}, 4),
                 std::invalid_argument);
}

TEST(ParallelSweep, ReplicaEnsembleBitIdentical)
{
    // Identical multi-cluster machines run concurrently (what the
    // bench ensemble leg times): every replica, on 1 or 4 workers,
    // must equal a lone run of the same point.
    const auto app = apps::perfectAppByName("ADM");
    const auto cfg = hw::CedarConfig::withProcs(32);
    core::RunOptions o;
    o.scale = 0.05;
    const auto ref = core::runExperiment(app, cfg, o);
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const auto rs = core::runSweep(
            app, o, std::vector<hw::CedarConfig>(4, cfg), jobs);
        ASSERT_EQ(rs.size(), 4u);
        for (const auto &r : rs)
            expectRunResultsIdentical(ref, r);
    }
}

TEST(TableFormat, RendersAlignedColumns)
{
    core::Table t({"name", "value"});
    t.addRow({"alpha", core::Table::num(1.5)});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const auto out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TableFormat, NumPrecision)
{
    EXPECT_EQ(core::Table::num(3.14159, 1), "3.1");
    EXPECT_EQ(core::Table::num(2.0, 0), "2");
}

} // namespace
