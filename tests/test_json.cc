/**
 * @file
 * Tests for the JSON emitter and reader (tools/bench_json.hh).
 *
 * JsonWriter::number must print exactly what the classic
 * `snprintf("%.*g")` + `sscanf` search for the shortest round-trip
 * precision printed; a copy of that loop is kept here as the
 * reference and compared over a seeded corpus of more than a million
 * doubles. The writer's layout (commas, indentation, key/value
 * pairing, the trailing newline), its escaping and its flush
 * contract are pinned too, and the reader's number parsing is
 * checked against strtod, as are its lenient getters and the checked
 * count conversion.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hh"

namespace
{

using cedar::tools::JsonValue;
using cedar::tools::JsonWriter;

/** The number formatting JsonWriter::number has to reproduce. */
std::string
referenceNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::array<char, 40> buf{};
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf.data(), buf.size(), "%.*g", prec, v);
        double back = 0;
        std::sscanf(buf.data(), "%lf", &back);
        if (back == v)
            break;
    }
    return buf.data();
}

double
fromBits(std::uint64_t b)
{
    return std::bit_cast<double>(b);
}

/** Random finite doubles drawn uniformly over bit patterns. */
std::vector<double>
randomBits(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<double> out;
    out.reserve(n);
    while (out.size() < n) {
        const double v = fromBits(rng());
        if (std::isfinite(v))
            out.push_back(v);
    }
    return out;
}

/** Random subnormals and the values around the normal boundary. */
std::vector<double>
subnormals(std::size_t n)
{
    std::mt19937_64 rng(7);
    std::vector<double> out;
    const std::uint64_t maxSub = 0x000fffffffffffffULL;
    for (std::uint64_t b = 1; b < 64; ++b) {
        out.push_back(fromBits(b));
        out.push_back(fromBits(maxSub - b));
        out.push_back(fromBits(maxSub + b));
    }
    while (out.size() < n) {
        const double v = fromBits(rng() & maxSub);
        out.push_back(rng() & 1 ? v : -v);
    }
    return out;
}

/** Every power of two, one ulp either side, and the special points
 *  of the double line. */
std::vector<double>
landmarks()
{
    std::vector<double> out;
    for (int e = -1074; e <= 1023; ++e) {
        const double p = std::ldexp(1.0, e);
        for (const double v :
             {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL)}) {
            out.push_back(v);
            out.push_back(-v);
        }
    }
    const double two53 = 9007199254740992.0;
    for (const double v :
         {0.0, -0.0, two53 - 1, two53, two53 + 2, two53 + 1, 1e21, 1e22,
          1e-5, 1e-4, 1e15, 1e16, 1e17, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3,
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::epsilon(), 1416748281.7394946}) {
        out.push_back(v);
        out.push_back(-v);
    }
    return out;
}

/** What the span and Chrome exporters print: tick counts times
 *  microseconds per tick, and slice starts (end minus duration). */
std::vector<double>
tickTimesMicros(std::size_t n)
{
    std::mt19937_64 rng(11);
    const std::array<double, 4> clocks = {20e6, 5.88e6, 33.3e6, 1e9};
    std::vector<double> out;
    out.reserve(n);
    while (out.size() < n) {
        const double us = 1e6 / clocks[rng() % clocks.size()];
        const auto tick = static_cast<double>(rng() % 200'000'000);
        const auto dur = static_cast<double>(rng() % 5'000);
        out.push_back(tick * us);
        out.push_back(tick * us - dur * us);
    }
    return out;
}

/** Ratios of small integers: the percentages, means and rates of the
 *  metrics and report documents. */
std::vector<double>
integerRatios(std::size_t n)
{
    std::mt19937_64 rng(13);
    std::vector<double> out;
    out.reserve(n);
    while (out.size() < n) {
        const auto a = static_cast<double>(rng() % 10'000'000);
        const auto b = static_cast<double>(rng() % 100'000 + 1);
        out.push_back(a / b);
        out.push_back(100.0 * a / (a + b));
    }
    return out;
}

void
expectMatchesReference(const std::vector<double> &corpus)
{
    std::size_t mismatches = 0;
    for (const double v : corpus) {
        const std::string got = JsonWriter::number(v);
        const std::string want = referenceNumber(v);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v)
                          << ": got " << got << ", want " << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << corpus.size() << " values";
}

/** Random bit patterns, one seed per test so the shards run in
 *  parallel: the reference loop is slow on large exponents. */
class JsonNumberRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(JsonNumberRandom, BitPatternsMatchReference)
{
    expectMatchesReference(randomBits(GetParam(), 150'000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonNumberRandom,
                         ::testing::Values(1, 2, 3, 4));

TEST(JsonNumber, SubnormalsMatchReference)
{
    expectMatchesReference(subnormals(100'000));
}

TEST(JsonNumber, LandmarksMatchReference)
{
    expectMatchesReference(landmarks());
}

TEST(JsonNumber, TickTimesMatchReference)
{
    expectMatchesReference(tickTimesMicros(250'000));
}

TEST(JsonNumber, IntegerRatiosMatchReference)
{
    expectMatchesReference(integerRatios(200'000));
}

TEST(JsonNumber, NonFiniteIsNull)
{
    EXPECT_EQ(JsonWriter::number(std::nan("")), "null");
    EXPECT_EQ(JsonWriter::number(HUGE_VAL), "null");
    EXPECT_EQ(JsonWriter::number(-HUGE_VAL), "null");
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray().value(std::nan("")).value(-HUGE_VAL).endArray();
    EXPECT_EQ(os.str(), "[\n  null,\n  null\n]");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(JsonWriter::quoted("a\"b\\c/d"), "\"a\\\"b\\\\c/d\"");
    EXPECT_EQ(JsonWriter::quoted("\n\r\t"), "\"\\n\\r\\t\"");
    EXPECT_EQ(JsonWriter::quoted(std::string("\0\x01\x1f\b\f", 5)),
              "\"\\u0000\\u0001\\u001f\\u0008\\u000c\"");
    // DEL and bytes >= 0x80 (UTF-8) pass through unchanged.
    EXPECT_EQ(JsonWriter::quoted("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
    EXPECT_EQ(JsonWriter::quoted(""), "\"\"");

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().field("k\"\x02", "v\\\n").endObject();
    EXPECT_EQ(os.str(), "{\n  \"k\\\"\\u0002\": \"v\\\\\\n\"\n}\n");
}

TEST(JsonWriter, GoldenNestedDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("name", std::string("cedar"));
    w.field("n", 3);
    w.field("big", std::uint64_t(18446744073709551615ULL));
    w.field("neg", std::int64_t(-9223372036854775807LL - 1));
    w.field("x", 0.1);
    w.field("ok", true);
    w.key("empty_obj").beginObject().endObject();
    w.key("empty_arr").beginArray().endArray();
    w.key("list").beginArray();
    w.value(1u).value(-2).value(2.5e-7);
    w.beginObject().field("deep", false).endObject();
    w.beginArray().value("s").endArray();
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"name\": \"cedar\",\n"
                        "  \"n\": 3,\n"
                        "  \"big\": 18446744073709551615,\n"
                        "  \"neg\": -9223372036854775808,\n"
                        "  \"x\": 0.1,\n"
                        "  \"ok\": true,\n"
                        "  \"empty_obj\": {},\n"
                        "  \"empty_arr\": [],\n"
                        "  \"list\": [\n"
                        "    1,\n"
                        "    -2,\n"
                        "    2.5e-07,\n"
                        "    {\n"
                        "      \"deep\": false\n"
                        "    },\n"
                        "    [\n"
                        "      \"s\"\n"
                        "    ]\n"
                        "  ]\n"
                        "}\n");
}

TEST(JsonWriter, StringLiteralFieldIsAString)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject().field("k", "v").endObject();
    EXPECT_EQ(os.str(), "{\n  \"k\": \"v\"\n}\n");
}

TEST(JsonWriter, StreamHoldsDocumentOnceTopLevelCloses)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("rows").beginArray();
    // Well past the flush threshold, so the buffer is handed over
    // mid-document too.
    for (int i = 0; i < 20'000; ++i)
        w.value(i * 0.5);
    w.endArray();
    w.endObject();
    // The writer is still alive: the closed document must already be
    // on the stream, byte for byte.
    const std::string doc = os.str();
    ASSERT_GT(doc.size(), 64u * 1024);
    EXPECT_EQ(doc.substr(0, 20), "{\n  \"rows\": [\n    0,");
    EXPECT_TRUE(doc.ends_with("    9999.5\n  ]\n}\n"));
    EXPECT_EQ(JsonValue::parse(doc).at("rows").asArray().size(), 20'000u);

    // A top-level scalar is a complete document too.
    std::ostringstream scalar;
    JsonWriter s(scalar);
    s.value(42);
    EXPECT_EQ(scalar.str(), "42");
}

TEST(JsonWriter, SequentialWritersKeepTheirOrder)
{
    std::ostringstream os;
    {
        JsonWriter a(os);
        a.beginObject().field("first", 1).endObject();
        os << "--\n";
        JsonWriter b(os);
        b.beginArray().value("second").endArray();
    }
    EXPECT_EQ(os.str(), "{\n  \"first\": 1\n}\n--\n[\n  \"second\"\n]");
}

TEST(JsonWriter, DestroyedMidDocumentHandsOverItsBuffer)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject().field("a", 1).key("b").beginArray().value(true);
    }
    EXPECT_EQ(os.str(), "{\n  \"a\": 1,\n  \"b\": [\n    true");
}

// ---------------------------------------------------------------
// Reader numbers
// ---------------------------------------------------------------

void
expectParsesLikeStrtod(const std::string &tok)
{
    const double want = std::strtod(tok.c_str(), nullptr);
    const double got = JsonValue::parse(tok).asNumber();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << tok << ": got " << got << ", want " << want;
}

TEST(JsonReader, NumbersParseLikeStrtodOverWriterCorpus)
{
    std::vector<double> corpus = randomBits(3, 100'000);
    for (const auto &part :
         {subnormals(20'000), landmarks(), tickTimesMicros(50'000),
          integerRatios(50'000)})
        corpus.insert(corpus.end(), part.begin(), part.end());
    for (const double v : corpus) {
        const std::string tok = JsonWriter::number(v);
        const double want = std::strtod(tok.c_str(), nullptr);
        const double got = JsonValue::parse(tok).asNumber();
        if (std::bit_cast<std::uint64_t>(got) !=
            std::bit_cast<std::uint64_t>(want)) {
            ADD_FAILURE() << tok << ": got " << got << ", want " << want;
            return;
        }
        ASSERT_EQ(got, v) << tok; // and the writer round-trips
    }
}

TEST(JsonReader, OutOfRangeNumbersMatchStrtod)
{
    for (const char *tok :
         {"1e400", "-1e400", "1e-400", "-1e-400", "0.5e309", "1.8e308",
          "-1.8e308", "2e-324", "-2e-324", "0.00001e-320", "123e-330",
          "100000000000000000000e300", "0.000000000000000001e-310",
          "1e99999999999999999999", "1e-99999999999999999999"})
        expectParsesLikeStrtod(tok);
    expectParsesLikeStrtod("1" + std::string(400, '0'));
    expectParsesLikeStrtod("-1" + std::string(400, '0') + ".5");
    expectParsesLikeStrtod("0." + std::string(400, '0') + "1");
    expectParsesLikeStrtod("-0." + std::string(330, '0') + "7e5");
}

TEST(JsonReader, NumbersInsideDocuments)
{
    const JsonValue doc =
        JsonValue::parse("{\"a\": [1.5, -0, 2e-3, 1e400], \"b\": 7}");
    const auto &a = doc.at("a").asArray();
    EXPECT_EQ(a[0].asNumber(), 1.5);
    EXPECT_TRUE(std::signbit(a[1].asNumber()));
    EXPECT_EQ(a[2].asNumber(), 0.002);
    EXPECT_EQ(a[3].asNumber(), HUGE_VAL);
    EXPECT_EQ(doc.at("b").asNumber(), 7);
    EXPECT_THROW(JsonValue::parse("1."), cedar::tools::JsonParseError);
    EXPECT_THROW(JsonValue::parse("-"), cedar::tools::JsonParseError);
    EXPECT_THROW(JsonValue::parse("1e+"), cedar::tools::JsonParseError);
}

TEST(JsonReader, LenientGettersDefaultMissingRejectWrongType)
{
    using cedar::tools::numOr;
    using cedar::tools::strOr;
    const JsonValue doc =
        JsonValue::parse("{\"n\": 2.5, \"s\": \"x\", \"k\": 1, \"k\": \"y\"}");
    EXPECT_EQ(numOr(doc, "n"), 2.5);
    EXPECT_EQ(numOr(doc, "missing", 7), 7);
    EXPECT_EQ(strOr(doc, "s"), "x");
    EXPECT_EQ(strOr(doc, "missing"), "");
    EXPECT_EQ(numOr(doc, "k"), 1) << "the first of duplicate keys wins";
    EXPECT_THROW(numOr(doc, "s"), cedar::tools::JsonParseError);
    EXPECT_THROW(strOr(doc, "n"), cedar::tools::JsonParseError);
    // A non-object has no members.
    EXPECT_EQ(strOr(JsonValue::parse("[1]"), "s"), "");
}

TEST(JsonReader, ToCountRefusesWhatACastCannotHold)
{
    using cedar::tools::toCount;
    EXPECT_EQ(toCount(0), 0u);
    EXPECT_EQ(toCount(-0.0), 0u);
    EXPECT_EQ(toCount(7), 7u);
    EXPECT_EQ(toCount(0x1p53), 1ULL << 53);
    EXPECT_EQ(toCount(0x1p64 - 2048), ~0ULL - 2047);
    EXPECT_EQ(toCount(4294967295.0, 0xffffffffu), 0xffffffffu);
    for (const double bad :
         {-1.0, -0.5, 2.5, 0x1p64, 1e20, 1e30, HUGE_VAL, -HUGE_VAL,
          std::numeric_limits<double>::quiet_NaN()})
        EXPECT_FALSE(toCount(bad).has_value()) << bad;
    EXPECT_FALSE(toCount(4294967296.0, 0xffffffffu).has_value());
    EXPECT_FALSE(toCount(JsonValue::parse("1e999").asNumber()));
}

} // namespace
