/**
 * @file
 * Analytic fast-forward patterns for global-memory traffic.
 *
 * Every global access in the model is reservation based: the whole
 * stage1 -> stage2 -> module -> returnA -> returnB path of a burst
 * is reserved synchronously at issue time (sim/fifo_server.hh). The
 * set of servers an access touches is a pure function of its *shape*
 * (home module of the first word, word count, burst vs RMW) — the
 * routing depends only on addresses. Given the shape, the entire
 * reservation outcome is determined by one more input: each touched
 * server's free horizon *relative to the access start*,
 *
 *   offsets[i] = max(0, freeAt_i - start).
 *
 * This holds because FifoServer::serve computes
 * start = max(arrival, not_before, free_at); with no fault windows
 * (not_before = 0) every serve start, wait and updated horizon is a
 * function of (arrival - start, offset) alone, so
 *
 *   outcome(start, offsets) = outcome(0, offsets) + start.
 *
 * The special case offsets == 0 is the idle machine; non-zero
 * offsets capture *contention*, including the convoys a saturated
 * streaming phase forms, where the same few offset vectors recur
 * thousands of times (queueing reaches a near-periodic steady
 * state).
 *
 * A BurstPattern is therefore learned per (shape, offset vector). It
 * records per touched server only what the offsets decide — the wait
 * sum and the relative free horizon — plus the aggregated per-class
 * queueing waits the telemetry layer would have published. Each
 * server's request count and busy ticks are fixed by the routing
 * alone (one serve per chunk stage or word, each of a fixed service
 * time), so they live once per shape (ShapeInfo::requests/busy),
 * taken from the shape's idle probe. The pattern is *recorded off
 * the live slow-path run* the missing access takes anyway (a stats
 * snapshot/diff around it, Network::slowBurstEligible) — by the
 * translation invariance above, those deltas are exactly what a
 * scratch replay at start = 0 pre-loaded with the offsets would
 * produce, at almost no extra cost. Replaying a learned pattern is
 * O(touched servers) instead of O(words), and leaves server
 * statistics, the MetricsHub and the returned timing bit-identical
 * to the slow path — reuse requires an *exact* offset-vector match,
 * so the replay is self-verifying (the correctness bar: not a single
 * published number may change — see tests/test_fastpath.cc).
 */

#ifndef CEDAR_NET_FASTPATH_HH
#define CEDAR_NET_FASTPATH_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/address_map.hh"
#include "obs/resource.hh"
#include "sim/types.hh"

namespace cedar::sim
{
class FifoServer;
}

namespace cedar::net
{

/** Structural bank of one pattern entry's server. Which concrete
 *  FifoServer it resolves to depends on the issuing cluster/CE
 *  (Network::fastServer) — the pattern itself is position free. */
enum class FastBank : std::uint8_t
{
    stage1,  //!< stage-1 output port `idx` (a module group)
    stage2,  //!< stage-2 input port of group `idx` (cluster column)
    returnA, //!< return stage A port of group `idx`
    returnB, //!< return stage B port (the issuing CE's own port)
    module,  //!< memory module `idx`
};

/** Position-free identity of one server an access shape touches. */
struct ServerRef
{
    FastBank bank;
    std::uint32_t idx; //!< group or module index (bank-relative)
};

/** One touched server's offset-dependent reservation outcome, all
 *  ticks relative to the access start. Which server it is, how many
 *  serves it took and their service ticks are the shape's (aligned
 *  ShapeInfo::servers/requests/busy entries). */
struct PatternServer
{
    sim::Tick waitSum; //!< queueing recorded
    sim::Tick freeAt;  //!< server's free horizon afterwards
};

/** Aggregated resource_wait telemetry of one pattern: @p count
 *  events of @p wait ticks at class @p cls. A count never exceeds
 *  one access's serve count, which the store keeps at most 2^32 - 1
 *  (BurstPatternCache::max_shape_serves). */
struct PatternWaits
{
    sim::Tick wait;
    std::uint32_t count;
    obs::ResourceClass cls;
};

/** The reservation outcome of one (shape, offsets) pair at
 *  start = 0. */
struct BurstPattern
{
    sim::Tick relComplete = 0; //!< completion tick relative to start
    unsigned lastLen = 0;      //!< last chunk's word count (unloaded)
    std::vector<PatternServer> servers;
    std::vector<PatternWaits> waits;
};

/** Number of FastBank values — per-bank arrays below index by the
 *  underlying enum value. */
inline constexpr unsigned fast_bank_count = 5;

/**
 * One *family* of reservation outcomes, parameterized by per-bank
 * uniform shifts of the offset vector (DESIGN.md §10.2).
 *
 * The serve DAG of a burst is feed-forward through the banks in the
 * fixed order stage1 -> stage2 -> module -> returnA -> returnB (CE
 * issue times are offset-independent). Saturated convoys at 16/32p
 * produce offset vectors that are per-bank rigid ladders — within a
 * bank, the entries keep a fixed relative profile while the bank's
 * *base* level drifts from burst to burst. When the recorded run
 * proves that every serve of a base-subtracted ("shift-keyed") bank
 * was horizon-bound, raising or lowering that bank's base by a
 * uniform delta shifts exactly that bank's serve starts, waits and
 * horizons by computable amounts and leaves branch decisions (every
 * max()) intact — so one recording replays bit-identically for the
 * whole one-sided family of base levels. See Network::applyParam for
 * the shift algebra and validity checks.
 */
struct ParamPattern
{
    BurstPattern pat;
    /** Recorded base level per shift-keyed bank (the minimum
     *  canonical offset of the bank, subtracted when keying). */
    std::array<sim::Tick, fast_bank_count> base{};
    /**
     * Per-bank validity constant c_b, from the recorded run.
     * Shift-keyed banks: c_b = max over the bank's serves of
     * arrival - pre-serve horizon. c_b <= 0 means every serve was
     * horizon-bound (a "rigid" bank) and any delta_b - beta_b >= c_b
     * replays exactly; c_b > 0 means some serve was arrival-bound
     * and only delta_b == beta_b (the whole bank shifting uniformly
     * with its arrivals, which preserves every max() branch
     * trivially) is accepted. Passive banks: c_b = max over the
     * bank's servers of canonical offset - first recorded arrival.
     * beta_b == 0 replays the bank verbatim (offsets and arrivals
     * both identical to the recording) and is always valid;
     * otherwise validity needs c_b <= 0 and beta_b >= c_b, the
     * condition under which every first serve stays arrival-bound.
     * A stage1 bank that is passive because it sits below its static
     * rigidity floors (ShapeInfo::stage1Floor) always replays with
     * beta == 0, so c_b > 0 there is harmless. beta_b is the shift
     * of the bank's request arrivals — the serve-start shift of the
     * bank feeding it.
     */
    std::array<std::int64_t, fast_bank_count> cmin{};
    std::uint8_t mask = 0; //!< bit b set: bank b is shift-keyed
    /** Number of banks with cmin > 0 — banks the variant can only
     *  replay at one exact shift. 0 = fully general (every validity
     *  check is a one-sided slack); used as the eviction score. */
    std::uint8_t nonRigid = 0;
};

/**
 * The variants recorded under one family key. Distinct contention
 * regimes (ramp-up, steady convoy, drain) produce recordings whose
 * validity ranges don't cover each other; keeping a handful side by
 * side lets each regime hit its own variant instead of evicting the
 * others. Lookup tries them in recording order.
 */
using ParamFamily = std::vector<ParamPattern>;

/** FNV-1a offset basis. Fast-path keys are hashed one element at a
 *  time with fnvStep() while they are gathered, so each key is hashed
 *  exactly once; every later lookup and sighting takes that value. */
inline constexpr std::uint64_t fnv_basis = 1469598103934665603ULL;

/** Fold one more key element into an FNV-1a hash. */
inline std::uint64_t
fnvStep(std::uint64_t h, sim::Tick t)
{
    return (h ^ t) * 1099511628211ULL;
}

/** FNV-1a over a whole key: what the incremental fnvStep() chain
 *  started at fnv_basis yields. */
inline std::uint64_t
fnvHash(const std::vector<sim::Tick> &key)
{
    std::uint64_t h = fnv_basis;
    for (const sim::Tick t : key)
        h = fnvStep(h, t);
    return h;
}

/** Home slot of @p hash in a table of 2^@p bits slots (@p bits >= 1).
 *  FNV over whole 64-bit ticks leaves weak low bits, so the hash is
 *  mixed first: Fibonacci hashing keeps the product's high bits,
 *  which depend on every bit of the hash. */
inline std::size_t
flatHome(std::uint64_t hash, unsigned bits)
{
    return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - bits));
}

/**
 * Open-addressing map from fixed-length tick keys to V — one shape's
 * pattern store. Every key of a shape has the same length, so the
 * keys live in one arena at a fixed stride rather than in a heap
 * vector each, and the values in one vector. A slot holds the key's
 * full 64-bit hash (computed once by the caller while it gathered the
 * key) and its entry index; a hash match is confirmed element by
 * element, so keys sharing a hash can never see each other's value.
 * Linear probing, grown by doubling at half load; nothing is
 * allocated before the first insert. Values never move between
 * inserts, and entries are never erased.
 */
template <typename V>
class FlatKeyTable
{
  public:
    explicit FlatKeyTable(std::size_t stride = 0) : stride_(stride) {}

    /** Elements per key. */
    std::size_t stride() const { return stride_; }
    /** Keys stored. */
    std::size_t size() const { return values_.size(); }

    /** The value under @p key (stride() elements hashing to
     *  @p hash), or nullptr. */
    const V *
    find(const sim::Tick *key, std::uint64_t hash) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot &s = slots_[slotOf(key, hash)];
        return s.entry != empty ? &values_[s.entry] : nullptr;
    }

    /** The value under @p key, value-initialised and inserted when
     *  absent. */
    V &
    findOrInsert(const sim::Tick *key, std::uint64_t hash)
    {
        std::size_t i = 0;
        if (!slots_.empty()) {
            i = slotOf(key, hash);
            if (slots_[i].entry != empty)
                return values_[slots_[i].entry];
        }
        if (2 * (values_.size() + 1) > slots_.size()) {
            grow();
            i = slotOf(key, hash);
        }
        slots_[i] = Slot{hash, static_cast<std::uint32_t>(values_.size())};
        keys_.insert(keys_.end(), key, key + stride_);
        return values_.emplace_back();
    }

  private:
    struct Slot
    {
        std::uint64_t hash;
        std::uint32_t entry;
    };
    static constexpr std::uint32_t empty = ~std::uint32_t(0);

    /** The slot holding @p key, or the empty slot that ends its probe
     *  chain. */
    std::size_t
    slotOf(const sim::Tick *key, std::uint64_t hash) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = flatHome(hash, bits_);; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (s.entry == empty ||
                (s.hash == hash &&
                 std::equal(key, key + stride_,
                            keys_.data() + s.entry * stride_)))
                return i;
        }
    }

    void
    grow()
    {
        bits_ = bits_ != 0 ? bits_ + 1 : 3;
        std::vector<Slot> old(std::size_t(1) << bits_, Slot{0, empty});
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.entry == empty)
                continue;
            std::size_t i = flatHome(s.hash, bits_);
            while (slots_[i].entry != empty)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::size_t stride_;
    unsigned bits_ = 0;
    std::vector<Slot> slots_;
    std::vector<sim::Tick> keys_; //!< entry e's key at [e*stride, +stride)
    std::vector<V> values_;
};

/**
 * The second-sighting filter's table: 64-bit sighting key -> count,
 * open addressing in one flat slot array (a count of 0 marks an empty
 * slot). Allocates 1024 slots at the first bump, then doubles at half
 * load.
 */
class SightingTable
{
  public:
    /** Count one more sighting of @p key; returns the new count. */
    std::uint64_t bump(std::uint64_t key);

    /** Sightings of @p key so far (0 if never bumped). */
    std::uint64_t count(std::uint64_t key) const;

    /** Distinct keys sighted. */
    std::size_t size() const { return size_; }

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t count;
    };

    std::size_t slotOf(std::uint64_t key) const;
    void grow();

    unsigned bits_ = 0;
    std::size_t size_ = 0;
    std::vector<Slot> slots_;
};

/**
 * Aggregates a recorded run's per-serve (class, wait) samples into
 * PatternWaits by equal value, without sorting. Entries come out in
 * first-appearance order; replay does not care, since
 * MetricsHub::recordWaits only adds to histogram buckets and sums.
 * The reused table's slots are live only while stamped with the
 * current generation, so starting a condensation costs an increment
 * rather than a clear.
 */
class WaitCondenser
{
  public:
    using Sample = std::pair<obs::ResourceClass, sim::Tick>;

    /** Append the condensed form of @p samples to @p out. */
    void condense(const std::vector<Sample> &samples,
                  std::vector<PatternWaits> &out);

  private:
    struct Slot
    {
        std::uint32_t gen;
        std::uint32_t entry; //!< index into the output vector
    };

    unsigned bits_ = 0;
    std::uint32_t gen_ = 0;
    std::vector<Slot> slots_;
};

/** One access shape: its touched-server set (fixed canonical order,
 *  the order offsets are gathered and keyed in), what every access of
 *  the shape does there whatever the offsets, and the patterns
 *  learned per distinct offset vector. */
struct ShapeInfo
{
    unsigned firstModule = 0;
    unsigned words = 0;
    bool isRmw = false;
    std::vector<ServerRef> servers;

    /**
     * Per touched server (same order as @p servers): the tick of the
     * shape's *first* request arrival at that server in the idle
     * (all-offsets-zero) replay, relative to the access start. Used
     * to canonicalize offset vectors before keying: replay arrivals
     * are monotone non-decreasing in the offsets (every serve start
     * is a max of arrival and horizons), so any replay's arrival at
     * server j is >= firstArrival[j]. An offset o_j <=
     * firstArrival[j] therefore never delays the first serve
     * (max(arrival, o_j) == arrival) nor records wait, and after the
     * first serve the server queues behind its own work — the
     * outcome is bit-identical to o_j == 0. Such don't-care offsets
     * are zeroed before the cache lookup, collapsing the
     * convoy-diverse vectors 16/32p runs produce onto one canonical
     * key (DESIGN.md §10.1).
     */
    std::vector<sim::Tick> firstArrival;

    /**
     * Per touched server (same order as @p servers): the serve()
     * calls and the service ticks one access of this shape makes
     * there. Both are fixed by the routing — which chunk stages and
     * words reach the server, each at a fixed service time — whatever
     * the offsets, so every pattern of the shape replays them from
     * here. Filled by the idle probe.
     */
    std::vector<std::uint32_t> requests;
    std::vector<sim::Tick> busy;
    /** serve() calls one access of this shape makes in all (the sum
     *  of @p requests): bounds every request and wait count a
     *  pattern of the shape holds. */
    std::uint64_t serves = 0;

    /** Exact patterns, keyed by the canonical offset vector
     *  (stride servers.size()). */
    FlatKeyTable<BurstPattern> patterns;

    /**
     * Parametric pattern families (ParamPattern), keyed by the
     * canonical offset vector with each shift-keyed bank's base
     * subtracted, plus one trailing element holding the shift-key
     * mask. A bank is shift-keyed in the key iff all its entries are
     * nonzero — a purely structural rule both the recording and
     * every lookup apply identically. Stride servers.size() + 1.
     */
    FlatKeyTable<ParamFamily> paramPatterns;

    /** [bankBegin[b], bankBegin[b] + bankCount[b]) is bank b's range
     *  in @p servers (banks are contiguous: makeShape emits servers
     *  in flat-index order). */
    std::array<std::uint32_t, fast_bank_count> bankBegin{};
    std::array<std::uint32_t, fast_bank_count> bankCount{};

    /**
     * Per server (aligned with @p servers, nonzero only for stage1
     * entries): the offset at or above which *every* serve of that
     * server is horizon-bound. Stage1 arrivals are CE issue times —
     * static per shape — so the floor is exact: with all of the
     * bank's offsets at or above their floors the whole bank replays
     * rigidly under any base shift that keeps them there, and the
     * family apply constraint (delta >= c_stage1) reduces to exactly
     * this floor test. Below a floor the bank cannot shift rigidly
     * and the vector joins no family (see Network::fastReplay).
     */
    std::vector<sim::Tick> stage1Floor;

    /** Rank of a group / module among the shape's touched ones —
     *  maps the slow loop's (bank, group/module) coordinates to the
     *  bank-relative position in @p servers while recording. */
    std::vector<std::uint32_t> groupRank;
    std::vector<std::uint32_t> moduleRank;

    /**
     * Per issuing CE, indexed cluster * cesPerCluster + CE port: the
     * concrete FifoServer each @p servers entry resolves to, in the
     * same order (empty until that CE first issues this shape).
     * Resolving the position-free refs costs a bank switch per server
     * per attempt; the offset gather and the replay apply run once
     * per global access, so the Network caches the resolution here on
     * first use (server storage is sized at construction and never
     * moves). Sized by the Network on the shape's first access.
     */
    std::vector<std::vector<sim::FifoServer *>> resolved;
};

/**
 * Memoized pattern store, one per Network (and therefore per
 * Machine: single-threaded by the same ownership rule as the
 * TelemetryBus). Applications issue a small set of access shapes
 * millions of times, and contended phases queue into near-periodic
 * steady states with few distinct offset vectors, so the cache stays
 * small while the replay savings compound.
 */
class BurstPatternCache
{
  public:
    /** Offsets at or above this bound skip the fast path: they would
     *  push the scratch replay's internal arithmetic toward the tick
     *  ceiling, where the slow path's own overflow behaviour (a
     *  SimError from serve()) must stay authoritative. */
    static constexpr sim::Tick max_offset = sim::Tick(1) << 40;

    /** Learned patterns stop growing past this approximate byte
     *  footprint across all shapes; later unseen offset vectors just
     *  take the slow path. A byte budget rather than an entry count:
     *  an RMW pattern takes ~0.26 KB against ~1.5 KB for a 256-word
     *  burst's (ARC2D 32p), and sync-heavy runs want many of exactly
     *  those. The paper points stay far below it (ARC2D 32p, the
     *  largest store, accounts ~51 MB). */
    static constexpr std::size_t max_pattern_bytes = 192u << 20;

    /** Shapes whose one access serves more often than this are never
     *  recorded: a shape's per-server request counts and a pattern's
     *  wait counts are 32-bit. */
    static constexpr std::uint64_t max_shape_serves = ~std::uint32_t(0);

    /** Every table starts empty and grows by doubling on demand. */
    explicit BurstPatternCache(const mem::AddressMap &map) : map_(map) {}

    /** The shape record for a burst of @p words whose first word
     *  lives on @p first_module (or the single-word RMW shape);
     *  its touched-server list is derived on first use. */
    ShapeInfo &
    shape(unsigned first_module, unsigned words, bool is_rmw)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(first_module) << 33) |
            (static_cast<std::uint64_t>(words) << 1) | (is_rmw ? 1u : 0u);
        auto it = shapes_.find(key);
        if (it == shapes_.end())
            it = shapes_.emplace(key, makeShape(first_module, words, is_rmw))
                     .first;
        return it->second;
    }

    /** The learned pattern for @p sh under @p offsets (one entry per
     *  sh.servers element, same order; @p hash is its fnvHash()), or
     *  nullptr when this vector has none yet. Pure lookup — learning
     *  happens through shouldRecord()/store(): the Network records the
     *  pattern off the slow-path run it is about to execute anyway,
     *  instead of paying a second full scratch replay to build it.
     *  Every method taking a key also takes its precomputed hash. */
    const BurstPattern *
    find(const ShapeInfo &sh, const std::vector<sim::Tick> &offsets,
         std::uint64_t hash) const
    {
        assert(offsets.size() == sh.patterns.stride());
        return sh.patterns.find(offsets.data(), hash);
    }

    /** The pattern family for @p key (base-subtracted canonical
     *  vector + mask element), or nullptr. */
    const ParamFamily *
    findParam(const ShapeInfo &sh, const std::vector<sim::Tick> &key,
              std::uint64_t hash) const
    {
        assert(key.size() == sh.paramPatterns.stride());
        return sh.paramPatterns.find(key.data(), hash);
    }

    /**
     * After a find() miss: should the slow-path run this access is
     * about to take be recorded as the pattern for @p offsets?
     * True only on the *second* sighting of an offset vector:
     * heavily contended sweeps produce long tails of one-shot queue
     * states whose patterns would never be replayed — the recording
     * bookkeeping and the stored bytes would be pure overhead. The
     * sighting note is a 64-bit hash, so a collision merely records
     * one pattern a sighting early; the pattern map itself still
     * matches vectors exactly. False as well when the store hit its
     * byte cap, an offset is out of replayable range, or the shape
     * serves too often for a pattern's 32-bit counts.
     */
    bool
    shouldRecord(const ShapeInfo &sh, const std::vector<sim::Tick> &offsets,
                 std::uint64_t hash)
    {
        if (patternBytes_ >= max_pattern_bytes ||
            sh.serves > max_shape_serves)
            return false;
        for (const sim::Tick o : offsets)
            if (o >= max_offset)
                return false;
        return sightings_.bump(sightingKey(sh, hash)) >= 2;
    }

    /** shouldRecord() for a pattern *family*: second sighting of the
     *  base-subtracted key. Separate sighting space (salted hash) —
     *  a family key deliberately recurs across bursts whose exact
     *  vectors never do. */
    bool
    shouldRecordParam(const ShapeInfo &sh,
                      const std::vector<sim::Tick> &key,
                      std::uint64_t hash)
    {
        if (patternBytes_ >= max_pattern_bytes ||
            sh.serves > max_shape_serves)
            return false;
        // A full family whose worst variant is already fully general
        // can never be improved — stop paying recording bookkeeping.
        const ParamFamily *fam = findParam(sh, key, hash);
        if (fam != nullptr && fam->size() >= max_family_variants &&
            worstVariant(*fam)->nonRigid == 0)
            return false;
        return sightings_.bump(sightingKey(sh, hash) ^
                               0x517cc1b727220a95ULL) >= 2;
    }

    /** Would storeParam() actually keep a variant scoring
     *  @p non_rigid under @p key? Lets the recording side skip
     *  condensing a run whose variant would just be dropped. */
    bool
    wouldAcceptParam(const ShapeInfo &sh,
                     const std::vector<sim::Tick> &key, std::uint64_t hash,
                     unsigned non_rigid) const
    {
        const ParamFamily *fam = findParam(sh, key, hash);
        if (fam == nullptr || fam->size() < max_family_variants)
            return true;
        return worstVariant(*fam)->nonRigid > non_rigid;
    }

    /** File a pattern recorded from a live slow-path run under
     *  @p offsets (the canonical vector the gather produced for it,
     *  which find() just missed). */
    void
    store(ShapeInfo &sh, const std::vector<sim::Tick> &offsets,
          std::uint64_t hash, BurstPattern &&p)
    {
        assert(offsets.size() == sh.patterns.stride());
        ++patternsBuilt_;
        patternBytes_ += sizeof(BurstPattern) +
                         p.servers.size() * sizeof(PatternServer) +
                         p.waits.size() * sizeof(PatternWaits) +
                         offsets.size() * sizeof(sim::Tick);
        sh.patterns.findOrInsert(offsets.data(), hash) = std::move(p);
    }

    /** Cap on recorded variants per family key: enough for the
     *  distinct contention regimes a loop exhibits, small enough that
     *  a lookup trying all of them stays trivial. */
    static constexpr std::size_t max_family_variants = 32;

    /**
     * File a new variant under its family key. A variant only ever
     * gets recorded when every stored one rejected a structurally
     * matching applicant (or the key was new), so distinct
     * contention regimes accumulate side by side instead of evicting
     * each other. When the key is full, a strictly worse-scoring
     * variant (more non-rigid banks, so a narrower validity range)
     * is replaced — monotone improvement, so regimes can't thrash —
     * and otherwise the newcomer is dropped: its regime keeps taking
     * the slow path, which is merely the status quo ante.
     */
    void
    storeParam(ShapeInfo &sh, const std::vector<sim::Tick> &key,
               std::uint64_t hash, ParamPattern &&p)
    {
        assert(key.size() == sh.paramPatterns.stride());
        ParamFamily &fam = sh.paramPatterns.findOrInsert(key.data(), hash);
        const std::size_t bytes =
            sizeof(ParamPattern) +
            p.pat.servers.size() * sizeof(PatternServer) +
            p.pat.waits.size() * sizeof(PatternWaits);
        if (fam.size() < max_family_variants) {
            ++patternsBuilt_;
            patternBytes_ +=
                bytes +
                (fam.empty() ? key.size() * sizeof(sim::Tick) : 0);
            fam.push_back(std::move(p));
            return;
        }
        ParamPattern *worst = worstVariant(fam);
        if (worst->nonRigid <= p.nonRigid)
            return;
        ++patternsBuilt_;
        patternBytes_ +=
            bytes - (sizeof(ParamPattern) +
                     worst->pat.servers.size() * sizeof(PatternServer) +
                     worst->pat.waits.size() * sizeof(PatternWaits));
        *worst = std::move(p);
    }

    /** Distinct (shape, offsets) patterns learned so far. */
    std::uint64_t patternsBuilt() const { return patternsBuilt_; }

    /** Accounted bytes of the learned patterns (what the
     *  max_pattern_bytes budget is checked against). */
    std::size_t patternBytes() const { return patternBytes_; }

    /** The family's highest-scoring (least general) variant. */
    static const ParamPattern *
    worstVariant(const ParamFamily &fam)
    {
        const ParamPattern *worst = &fam.front();
        for (const ParamPattern &p : fam)
            if (p.nonRigid > worst->nonRigid)
                worst = &p;
        return worst;
    }
    static ParamPattern *
    worstVariant(ParamFamily &fam)
    {
        return const_cast<ParamPattern *>(
            worstVariant(static_cast<const ParamFamily &>(fam)));
    }

  private:
    ShapeInfo makeShape(unsigned first_module, unsigned words,
                        bool is_rmw) const;
    /** Replay @p sh once at start = 0 on an idle scratch machine and
     *  fill its per-server constants (firstArrival, requests, busy,
     *  serves). Live patterns are recorded from real slow-path runs
     *  instead. */
    void idleProbe(ShapeInfo &sh) const;

    /** The sighting-table key of a shape's key hashing to @p hash. */
    static std::uint64_t
    sightingKey(const ShapeInfo &sh, std::uint64_t hash)
    {
        std::uint64_t h = hash;
        h ^= (static_cast<std::uint64_t>(sh.firstModule) << 33) |
             (static_cast<std::uint64_t>(sh.words) << 1) |
             (sh.isRmw ? 1u : 0u);
        return h * 0x9e3779b97f4a7c15ULL;
    }

    mem::AddressMap map_;
    std::unordered_map<std::uint64_t, ShapeInfo> shapes_;
    SightingTable sightings_;
    std::uint64_t patternsBuilt_ = 0;
    std::size_t patternBytes_ = 0;
};

} // namespace cedar::net

#endif // CEDAR_NET_FASTPATH_HH
