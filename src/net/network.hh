/**
 * @file
 * The Cedar two-stage shuffle-exchange interconnection network,
 * generalized to arbitrary geometry.
 *
 * Forward path (CE -> global memory): each cluster owns a stage-1
 * crossbar with one output port per stage-2 switch; each stage-2
 * switch has one input port per cluster and fronts one group of
 * consecutive memory modules. The stage-2 width is therefore
 * *derived* from the memory geometry (numGroups = modules /
 * group_size) rather than assumed — Cedar as measured is 8 switches
 * of 4 modules each, but any validated CedarConfig shape works. The
 * return path (memory -> CE) mirrors it with its own switches, as on
 * Cedar where the two directions are separate networks.
 *
 * All timing is reservation based: a transfer reserves its whole
 * path at issue time, and contention (queueing at ports and modules)
 * falls out of overlapping reservations.
 */

#ifndef CEDAR_NET_NETWORK_HH
#define CEDAR_NET_NETWORK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <utility>
#include <vector>

#include "mem/global_memory.hh"
#include "net/crossbar.hh"
#include "net/fastpath.hh"
#include "obs/resource.hh"
#include "sim/types.hh"

namespace cedar::obs
{
class Tracer;
class MetricsHub;
}

namespace cedar::net
{

/** Outcome of one network transaction. */
struct XferResult
{
    sim::Tick complete; //!< tick at which the response reaches the CE
    sim::Tick unloaded; //!< zero-contention latency of the same path
    std::uint64_t oldValue = 0; //!< previous word value (RMW only)

    /** Queueing delay experienced relative to an idle machine. */
    sim::Tick
    queueing(sim::Tick issued) const
    {
        const sim::Tick total = complete - issued;
        return total > unloaded ? total - unloaded : 0;
    }
};

/**
 * Identity of one crossbar port, as handed to Network::visitPorts:
 * the bank tag names the structural role (the observability layer
 * maps it to a resource class), bankName is the owning crossbar's
 * display name.
 */
struct PortSite
{
    const char *bank; //!< "stage1" | "stage2" | "returnA" | "returnB"
    const std::string &bankName;
    unsigned portIdx;
};

/** How often the analytic fast path fired vs fell back; purely
 *  informational (bench reporting, test assertions). */
struct FastPathStats
{
    std::uint64_t fastBursts = 0; //!< bursts replayed from a pattern
    std::uint64_t slowBursts = 0; //!< bursts through the chunk loop
    std::uint64_t fastRmws = 0;   //!< RMWs replayed from a pattern
    std::uint64_t slowRmws = 0;   //!< RMWs through the serve loop

    std::uint64_t hits() const { return fastBursts + fastRmws; }
    std::uint64_t misses() const { return slowBursts + slowRmws; }
};

/**
 * The network plus the memory behind it; the single entry point the
 * CE's global interface uses for all global-memory traffic.
 */
class Network
{
  public:
    /** Per-stage wire/setup latency in cycles. */
    static constexpr sim::Tick hop_latency = 2;

    /**
     * Build the two-stage network for @p n_clusters clusters of
     * @p ces_per_cluster CEs in front of @p gmem (whose AddressMap
     * determines the stage-2 switch count).
     *
     * @throws sim::ConfigError on a degenerate geometry.
     */
    Network(unsigned n_clusters, unsigned ces_per_cluster,
            mem::GlobalMemory &gmem);

    unsigned numClusters() const { return nClusters_; }

    /** Interleaving geometry of the memory behind the network. */
    const mem::AddressMap &gmemMap() const { return gmem_.map(); }

    /** Attach the telemetry tracer (queueing waits, flow stages). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Attach the hub that receives batched resource_wait updates
     *  when the fast path replays a pattern. The fast path only
     *  fires when this hub is provably the bus's sole resource_wait
     *  subscriber (TelemetryBus::soleSubscriber). */
    void setMetricsHub(obs::MetricsHub *hub) { hub_ = hub; }

    /** Enable/disable the analytic fast path (RunOptions::fastPath,
     *  `cedar_cli --no-fast-path`). Results are bit-identical either
     *  way; the toggle exists for A/B timing and debugging. */
    void setFastPath(bool on) { fastPath_ = on; }
    bool fastPathEnabled() const { return fastPath_; }

    /** Fast-path hit/miss counters (informational). */
    const FastPathStats &fastStats() const { return fastStats_; }

    /** Distinct (shape, offset-vector) patterns learned so far. */
    std::uint64_t fastPatterns() const { return cache_.patternsBuilt(); }

    /** Accounted bytes of those patterns (informational). */
    std::size_t fastPatternBytes() const { return cache_.patternBytes(); }

    /**
     * Stream @p words consecutive double-words starting at @p addr
     * through the network as one pipelined burst issued at @p start
     * (chunks issue at one word per cycle). This is the CE's burst
     * entry point; it dispatches to the analytic fast path when the
     * touched servers' queue state matches a learned pattern, and
     * otherwise reserves chunk by chunk exactly as before.
     * complete == sim::max_tick when a dead module swallowed part of
     * the stream.
     */
    XferResult burst(sim::Tick start, sim::ClusterId cluster, int ce_port,
                     sim::Addr addr, unsigned words,
                     std::uint32_t flow = 0);

    /**
     * Transfer one chunk (<= one module-group span) between a CE and
     * the global memory. Reads and writes share path timing. A
     * non-zero @p flow tags the transfer's telemetry milestones.
     */
    XferResult chunkAccess(sim::Tick when, sim::ClusterId cluster,
                           int ce_port, const mem::Chunk &chunk,
                           std::uint32_t flow = 0);

    /**
     * Atomic read-modify-write of one global word (test&set,
     * fetch&add). Serialised at the memory module.
     */
    XferResult rmw(sim::Tick when, sim::ClusterId cluster, int ce_port,
                   sim::Addr addr, const sim::RmwFn &f,
                   std::uint32_t flow = 0);

    /** Zero-contention latency of a chunk of @p len words. */
    sim::Tick unloadedLatency(unsigned len, bool is_rmw = false) const;

    /**
     * Fault injection: block every port of one switch (forward and
     * mirrored return crossbar) for @p duration ticks starting at
     * @p when. Traffic already reserved queues normally behind the
     * stall. @p stage selects stage-1 (per-cluster, @p idx is a
     * cluster) or stage-2 (per-group, @p idx is a module group).
     *
     * @throws sim::SimError when the stage or index is out of range.
     */
    void stallSwitch(sim::Tick when, unsigned stage, unsigned idx,
                     sim::Tick duration);

    /** Untimed RMW fallback (see mem::GlobalMemory::forceRmw). */
    std::uint64_t
    forceRmw(sim::Addr addr, const sim::RmwFn &f)
    {
        return gmem_.forceRmw(addr, f);
    }

    /** Queueing wait accumulated in switches (not memory modules). */
    sim::Tick switchWaitTicks() const;

    /** Queueing wait accumulated in switches and memory modules. */
    sim::Tick totalWaitTicks() const;

    const Crossbar &stage1(sim::ClusterId c) const { return stage1_.at(c); }
    const Crossbar &stage2(unsigned g) const { return stage2In_.at(g); }

    /** Visit every port server in the network (snapshotting). */
    void visitPorts(
        const std::function<void(const PortSite &,
                                 const sim::FifoServer &)> &f) const;

    /** Visit every port server for wiring (e.g. attaching the
     *  observability layer's wait histograms). */
    void visitPortsMut(
        const std::function<void(const PortSite &, sim::FifoServer &)>
            &f);

    /**
     * Human-readable utilisation report of every switch stage and
     * the memory modules over the first @p elapsed ticks: request
     * counts, busy fractions and mean queueing waits. The tool for
     * finding *where* contention concentrated.
     */
    void report(std::ostream &os, sim::Tick elapsed) const;

    void reset();

  private:
    unsigned nClusters_;
    unsigned cesPerCluster_;
    mem::GlobalMemory &gmem_;
    obs::Tracer *tracer_ = nullptr;
    obs::MetricsHub *hub_ = nullptr;
    bool fastPath_ = true;
    BurstPatternCache cache_;
    FastPathStats fastStats_;

    /** Per cluster: output ports, one per stage-2 switch. */
    std::vector<Crossbar> stage1_;
    /** Per module group: input ports, one per cluster. */
    std::vector<Crossbar> stage2In_;
    /** Return path, stage A: per group, output ports per cluster. */
    std::vector<Crossbar> returnA_;
    /** Return path, stage B: per cluster, output ports per CE. */
    std::vector<Crossbar> returnB_;

    /** Publish one queueing wait: a request arriving at @p arrival
     *  found its port busy until @p free_at. */
    void noteWait(obs::ResourceClass cls, std::int32_t res,
                  sim::Tick arrival, sim::Tick free_at);

    sim::Tick forwardPath(sim::Tick when, sim::ClusterId cluster,
                          unsigned group, unsigned len,
                          std::uint32_t flow);
    sim::Tick returnPath(sim::Tick when, sim::ClusterId cluster,
                         int ce_port, unsigned group, unsigned len,
                         std::uint32_t flow);

    // ----- analytic fast path (see net/fastpath.hh) -----

    /** What a fast-path miss leaves behind for the slow path: the
     *  shape, its resolved touched-server pointers, and whether the
     *  slow run about to happen should be recorded as this offset
     *  vector's pattern (second sighting). The canonical offsets
     *  themselves stay in offsetScratch_. */
    struct FastMissCtx
    {
        ShapeInfo *sh = nullptr;
        const std::vector<sim::FifoServer *> *servers = nullptr;
        bool record = false;      //!< snapshot + diff the slow run
        bool exactRecord = false; //!< exact vector sighted twice
        bool paramRecord = false; //!< family key sighted twice
        std::uint8_t paramMask = 0; //!< gather-time shift-keyed banks
    };

    /** May the fast path even be attempted for this access? */
    bool fastEligible(std::uint32_t flow) const;

    /** Resolve a position-free bank/index pair to the live server it
     *  stands for, given the issuing cluster and CE port. */
    sim::FifoServer &fastServer(FastBank bank, std::uint32_t idx,
                                sim::ClusterId cluster, int ce_port);

    /** The shape's touched servers resolved for (cluster, ce_port),
     *  cached in the ShapeInfo on first use. */
    const std::vector<sim::FifoServer *> &
    resolvedServers(ShapeInfo &sh, sim::ClusterId cluster, int ce_port);

    /** Gather the touched servers' relative free-horizon offsets,
     *  look up the matching pattern, and apply it: batched server
     *  statistics, batched telemetry, and the returned timing are
     *  bit-identical to the slow path. Each key (the canonical offset
     *  vector, the family key) is hashed once, as it is gathered.
     *  Returns false for "take the slow path" (no pattern yet, store
     *  capped, an offset out of range, or too close to the tick
     *  ceiling); @p miss then carries what the slow path needs to
     *  record the run as a new pattern. */
    bool fastReplay(sim::Tick start, sim::ClusterId cluster, int ce_port,
                    unsigned first_module, unsigned words, bool is_rmw,
                    FastMissCtx &miss, sim::Tick &rel_complete,
                    unsigned &last_len);

    /**
     * Replay a pattern *family* member (DESIGN.md §10.2). Computes
     * the per-bank shift algebra in DAG order — beta_b (arrival
     * shift) is the alpha of the upstream bank, alpha_b (serve-start
     * shift) is the bank's own base delta when shift-keyed and
     * beta_b when passive — validates the one-sided constraints the
     * recording proved sufficient, and applies the recorded pattern
     * with each bank's stats, horizons and published waits shifted
     * by its (alpha, alpha - beta). Returns false (take the slow
     * path) when the member lies outside the family's validity
     * range or too close to the tick ceiling.
     */
    bool applyParam(const ParamPattern &pp,
                    const std::array<sim::Tick, fast_bank_count> &bases,
                    sim::Tick start, const ShapeInfo &sh,
                    const std::vector<sim::FifoServer *> &srvs,
                    sim::Tick &rel_complete, unsigned &last_len);

    /**
     * The slow-path burst chunk loop, specialised for fast-eligible
     * accesses (flow == 0, telemetry provably "hub absorbs every
     * resource_wait" or none): identical serves in identical order
     * with identical published waits, with the per-chunk dispatch
     * through chunkAccess/forwardPath/returnPath flattened and the
     * telemetry route resolved once. When @p miss.record is set, the
     * run's per-server stats deltas and per-serve waits are filed as
     * the pattern for the canonical offsets in offsetScratch_.
     */
    XferResult slowBurstEligible(sim::Tick start, sim::ClusterId cluster,
                                 int ce_port, sim::Addr addr,
                                 unsigned words, const FastMissCtx &miss);

    /** Snapshot the touched servers' stats before a recorded run. */
    void snapshotServers(const FastMissCtx &miss);

    /** Condense a just-executed recorded run into a BurstPattern:
     *  per-server wait-sum deltas against snapScratch_ and free
     *  horizons, plus the (class, wait) pairs captured in
     *  waitScratch_ aggregated by equal value (waitCondenser_, no
     *  sort). */
    BurstPattern diffPattern(const FastMissCtx &miss, sim::Tick start,
                             sim::Tick rel_complete, unsigned last_len);

    /** Reused offset-gather buffer (single-threaded per Machine). */
    std::vector<sim::Tick> offsetScratch_;
    /** fnvHash(offsetScratch_), built during the gather. */
    std::uint64_t offsetHash_ = 0;
    /** Reused per-serve (class, wait) capture for pattern recording. */
    std::vector<WaitCondenser::Sample> waitScratch_;
    /** Condenses waitScratch_ into a pattern's waits. */
    WaitCondenser waitCondenser_;
    /** Reused pre-run stats snapshot for pattern recording: per
     *  touched server, its waitTicks. */
    std::vector<sim::Tick> snapScratch_;
    /** Debug builds also snapshot (requests, busyTicks), to assert
     *  that every recorded run matches the shape's constants; empty
     *  under NDEBUG. */
    std::vector<std::array<std::uint64_t, 2>> debugSnap_;
    /** Reused family-key buffer (base-subtracted offsets + mask). */
    std::vector<sim::Tick> paramScratch_;
    /** fnvHash(paramScratch_), mask element included. */
    std::uint64_t paramHash_ = 0;
    /** Gather-time per-bank bases of the candidate family key. */
    std::array<sim::Tick, fast_bank_count> paramBase_{};
    /** Reused per-server first-serve marks while recording. */
    std::vector<char> seenScratch_;
};

} // namespace cedar::net

#endif // CEDAR_NET_NETWORK_HH
