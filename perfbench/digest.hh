/**
 * @file
 * Digest of a run's published result: FNV-1a 64 over a canonical
 * text of every RunResult field the library publishes. Fields that
 * describe how the run was executed rather than what it computed —
 * fast-path engagement, the PDES partition, the hpm trace, the span
 * timeline and the time series — are left out, so the digest is the
 * same with the fast path on or off and with tracing on or off.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdio>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/study.hh"

namespace perfbench
{

/** Exact text of a double (hex float), so digests see every bit. */
inline std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** The canonical text the digest is taken over. */
inline std::string
publishedText(const cedar::core::RunResult &r)
{
    std::ostringstream os;
    os << "app=" << r.app << "\nnprocs=" << r.nprocs
       << "\nclusters=" << r.nClusters << "x" << r.cesPerCluster
       << "\nclock=" << exact(r.clockHz) << "\nct=" << r.ct
       << "\nstatus=" << static_cast<int>(r.status)
       << "\nfaults=" << r.faultsInjected << "," << r.accessesDegraded
       << "," << r.parkedCes << "\n";
    for (std::size_t i = 0; i < r.ceAcct.size(); ++i) {
        const auto &a = r.ceAcct[i];
        os << "ce" << i << "=";
        for (auto t : a.cat)
            os << t << ",";
        for (auto t : a.osAct)
            os << t << ",";
        for (auto t : a.userAct)
            os << t << ",";
        os << "\n";
    }
    os << "concurrency=" << exact(r.machineConcurrency);
    for (double c : r.clusterConcurrency)
        os << "," << exact(c);
    os << "\nwindows=";
    for (const auto &w : r.windows)
        os << w.sxWall << ":" << w.mcWall << ",";
    const auto &rt = r.rtlStats;
    os << "\nrtl=" << rt.loopsPosted << "," << rt.sdoallLoops << ","
       << rt.xdoallLoops << "," << rt.mcLoops << "," << rt.cdoacrossLoops
       << "," << rt.outerIters << "," << rt.bodiesExecuted << ","
       << rt.helperJoins << "," << rt.stepsRun;
    const auto &x = r.osStats;
    os << "\nos=" << x.cpis << "," << x.ctxSwitches << ","
       << x.clusterSyscalls << "," << x.globalSyscalls << "," << x.asts
       << "," << x.ioBlocks << "\npagefaults=" << r.seqFaults << ","
       << r.concFaults << "\ncontention=" << r.ceQueueStall << ","
       << r.resourceWait << "," << r.globalWords
       << "\nevents=" << r.eventsExecuted << "," << r.peakPending
       << "\nmetrics=";
    r.metrics.writeJson(os);
    return os.str();
}

/** Digest of a run's published result, as 16 hex digits. */
inline std::string
resultDigest(const cedar::core::RunResult &r)
{
    return cedar::core::hashHex(cedar::core::fnv1a64(publishedText(r)));
}

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
