/**
 * @file
 * Tests of the benchmark's own arithmetic: percentiles with their
 * sample count, hit rates with a zero base, self-time subtraction
 * over nested spans, and the stability of the published-result
 * digest. run.py runs this after every build and refuses to time a
 * runner whose arithmetic fails. Exit status 0 when every check
 * passes.
 */

#include <cmath>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/perfect.hh"
#include "core/experiment.hh"
#include "digest.hh"
#include "hostspeed.hh"
#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

template <typename F>
bool
throws(F f)
{
    try {
        f();
    } catch (const std::invalid_argument &) {
        return true;
    }
    return false;
}

void
testPercentile()
{
    // Python: statistics.quantiles([1..10], n=4, method="inclusive")
    // gives 3.25, 5.5, 7.75.
    std::vector<double> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    expect(near(percentile(v, 25).value, 3.25), "p25 of 1..10");
    expect(near(percentile(v, 50).value, 5.5), "p50 of 1..10");
    expect(near(percentile(v, 75).value, 7.75), "p75 of 1..10");
    expect(near(percentile(v, 90).value, 9.1), "p90 of 1..10");
    expect(near(percentile(v, 0).value, 1) &&
               near(percentile(v, 100).value, 10),
           "p0/p100 are min/max");
    expect(percentile(v, 90).samples == 10, "sample count travels");
    expect(near(percentile({42}, 90).value, 42) &&
               percentile({42}, 90).samples == 1,
           "one sample is its own percentile");
    expect(near(median({3, 1, 2}), 2), "odd median");
    expect(throws([] { percentile({}, 50); }), "empty sample throws");
    expect(throws([] { percentile({1, 2}, 101); }), "p > 100 throws");
}

void
testHitRate()
{
    const HitRate zero = hitRate(0, 0);
    expect(zero.rate == 0 && zero.base == 0, "zero base gives 0 of 0");
    const HitRate none = hitRate(0, 8);
    expect(none.rate == 0 && none.base == 8, "0 of 8 keeps its base");
    const HitRate some = hitRate(3, 4);
    expect(near(some.rate, 0.75) && some.base == 4, "3 of 4");
    expect(throws([] { hitRate(5, 4); }), "useful > attempts throws");
}

void
testSelfTime()
{
    // root [0,100) > a [10,40) > a1 [15,25)
    //              > b [50,90) > b1 [60,70), b2 [65,80) (overlap)
    //              > c [95,120) sticks out of the root
    std::vector<Span> s = {
        {"root", "perfbench", "", 0, 100, -1},
        {"a", "core", "p1", 10, 40, 0},
        {"a1", "obs", "p1", 15, 25, 1},
        {"b", "core", "p2", 50, 90, 0},
        {"b1", "obs", "p2", 60, 70, 3},
        {"b2", "obs", "p2", 65, 80, 3},
    };
    auto self = selfTimes(s);
    expect(self[0] == 100 - 30 - 40, "root minus its children");
    expect(self[1] == 30 - 10, "a minus a1");
    expect(self[2] == 10, "leaf self time is its duration");
    expect(self[3] == 40 - 20, "overlapping children counted once");
    // Overlapping children are one interval to their parent but two
    // spans in the sum, so only a properly nested tree closes.
    expect(subtreeSelfTime(s, self, 0) == 105, "overlap counted twice");
    auto nested = s;
    nested[5].start = 70;
    expect(subtreeSelfTime(nested, selfTimes(nested), 0) == 100,
           "self times of a nested tree sum to the root's wall time");
    const auto layers = selfTimeByLayer(s);
    expect(layers.at("obs") == 10 + 10 + 15 && layers.at("core") == 40 &&
               layers.at("perfbench") == 30,
           "per-layer self time");

    s.push_back({"c", "core", "", 95, 120, 0});
    self = selfTimes(s);
    expect(self[0] == 100 - 30 - 40 - 5, "child clipped to its parent");
    s.back().parent = 99;
    expect(throws([&] { selfTimes(s); }), "bad parent index throws");

    Probe probe(true);
    {
        auto outer = probe.scope("outer", "perfbench");
        auto inner = probe.scope("inner", "core", "x");
        inner.stop();
        auto second = probe.scope("second", "obs", "x");
    }
    const auto &ps = probe.spans();
    expect(ps.size() == 3 && ps[1].parent == 0 && ps[2].parent == 0,
           "probe records parents");
    expect(subtreeSelfTime(ps, selfTimes(ps), 0) ==
               ps[0].end - ps[0].start,
           "probe spans close over their root");
    Probe off(false);
    off.scope("x", "core").stop();
    expect(off.spans().empty(), "untraced probe keeps no spans");
}

void
testSpeedFactor()
{
    expect(near(speedFactor(0.04, 0.04, 0.04), 1.0),
           "reference-speed host scales by 1");
    expect(near(speedFactor(0.04, 0.05, 0.07), 0.04 / 0.06),
           "factor uses the mean of the samples around the call");
    expect(near(speedFactor(0.04, 0.08, 0.08) * 10.0, 5.0),
           "a host at half speed halves the time");
    expect(throws([] { speedFactor(0.04, 0.0, 0.04); }),
           "zero sample throws");
    HostSpeed h;
    h.sample();
    h.sample();
    expect(h.factor() > 0 && h.factors().size() == 2,
           "probe keeps one factor per sample");
    h.use(HostSpeed::Kernel::format);
    h.sample();
    expect(h.factor() > 0 && h.factors().size() == 3,
           "the format kernel samples too");
}

void
testDigest()
{
    const auto app = cedar::apps::perfectAppByName("ADM").scaled(0.01);
    cedar::core::RunOptions o;
    o.seed = 3;
    const auto a = cedar::core::runExperiment(app, 4, o);
    const auto b = cedar::core::runExperiment(app, 4, o);
    expect(resultDigest(a) == resultDigest(b), "digest repeats");
    expect(resultDigest(a).size() == 16, "digest is 16 hex digits");

    cedar::core::RunOptions slow = o;
    slow.fastPath = false;
    expect(resultDigest(cedar::core::runExperiment(app, 4, slow)) ==
               resultDigest(a),
           "digest ignores the fast path");
    cedar::core::RunOptions traced = o;
    traced.collectTimeline = true;
    traced.tsWindow = 5000;
    expect(resultDigest(cedar::core::runExperiment(app, 4, traced)) ==
               resultDigest(a),
           "digest ignores the timeline and time series");

    auto c = a;
    c.ct += 1;
    expect(resultDigest(c) != resultDigest(a), "digest sees CT");
    c = a;
    c.machineConcurrency = std::nextafter(c.machineConcurrency, 1e9);
    expect(resultDigest(c) != resultDigest(a),
           "digest sees the last bit of a double");
    c = a;
    c.fastPathHits += 1;
    expect(resultDigest(c) == resultDigest(a),
           "digest skips informational counters");
}

} // namespace

int
main()
{
    testPercentile();
    testHitRate();
    testSelfTime();
    testSpeedFactor();
    testDigest();
    if (failures) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-test: all checks passed\n";
    return 0;
}
