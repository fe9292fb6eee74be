/**
 * @file
 * The library's dependency-free JSON emitter and reader.
 *
 * JsonWriter is the one emitter behind every JSON document the
 * project writes: span and Chrome traces (obs/chrome_trace), the
 * cedar-metrics-v1, report, summary and study artifacts, and the
 * benchmark trajectories (bench/sweep_perf, perfbench). JsonValue
 * reads documents back (tools/bench_delta, core/summarize, and
 * core/study's manifest journal, cache entries and summaries). The
 * writer covers nested objects/arrays, string/number/bool scalars,
 * RFC 8259 string escaping and round-trippable numbers: the fewest
 * `%.{p}g` digits that parse back exactly, formatted with
 * std::to_chars, so the output does not depend on LC_NUMERIC.
 * Commas and key/value ordering are handled by a context stack, so
 * call sites read like the document. The reader is a strict
 * recursive-descent parser over the same subset (full RFC 8259 minus
 * \\u surrogate pairs, which the emitter never produces).
 *
 * Flush contract: the writer appends into its own buffer and hands
 * it to the stream with one write whenever it passes 64 KiB, as soon
 * as the top-level value closes, and when the writer is destroyed.
 * So once the document is complete the stream holds all of it (and
 * any write error is on the stream's state), and writers used one
 * after another on one stream keep their order. Do not write to the
 * stream directly while a document is open.
 */

#ifndef CEDAR_TOOLS_BENCH_JSON_HH
#define CEDAR_TOOLS_BENCH_JSON_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cedar::tools
{

/** Buffered JSON writer with automatic comma/indent management. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}
    /** Hands whatever is still buffered to the stream. */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next emitted value belongs to it. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    /** Keeps `value("text")` a string: without it a literal would
     *  convert to bool before it converts to std::string_view. */
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(std::int64_t(v)); }
    JsonWriter &value(unsigned v) { return value(std::uint64_t(v)); }
    JsonWriter &value(bool v);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** Escape + quote a string per RFC 8259. */
    static std::string quoted(const std::string &s);

    /** Shortest decimal form of @p v that round-trips exactly. */
    static std::string number(double v);

  private:
    enum class Ctx { array, object };

    void separator();
    void indent();
    /** Hand the buffer over once the document is complete or the
     *  buffer has passed the flush threshold. */
    void flushIfDue();
    void flush();

    std::ostream &os_;
    std::string buf_;
    std::vector<Ctx> stack_;
    bool firstInCtx_ = true;
    bool pendingKey_ = false;
};

/** Malformed input handed to JsonValue::parse. */
class JsonParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A parsed JSON document node. Heap-boxed children keep the type
 * regular; benchmark artifacts are a few kilobytes, so convenience
 * beats compactness here. Accessors throw JsonParseError on a type
 * or key mismatch — for a delta tool, "this field is missing" is a
 * diagnostic, not a crash.
 */
class JsonValue
{
  public:
    enum class Kind { null, boolean, number, string, array, object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;

    /** Member lookup; throws unless this is an object with key @p k. */
    const JsonValue &at(const std::string &k) const;
    /** True when this is an object containing key @p k. */
    bool has(const std::string &k) const;

    /** Parse one complete document; trailing garbage is an error. */
    static JsonValue parse(const std::string &text);

  private:
    Kind kind_ = Kind::null;
    bool b_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    /** Insertion-ordered members; a vector because std::map of an
     *  incomplete element type is not portable. */
    std::vector<std::pair<std::string, JsonValue>> obj_;

    friend class JsonParser;
};

/** Member @p key as a number, @p dflt when @p obj has no such key;
 *  throws JsonParseError when the member is not a number. */
double numOr(const JsonValue &obj, const std::string &key,
             double dflt = 0);

/** Member @p key as a string, empty when @p obj has no such key;
 *  throws JsonParseError when the member is not a string. */
std::string strOr(const JsonValue &obj, const std::string &key);

/**
 * @p v as an integer count no greater than @p max, or nullopt when it
 * is negative, not a whole number, not finite or above @p max. Every
 * JSON number reads back as a double, and casting one outside the
 * target type's range is undefined behaviour, so counts read from
 * untrusted documents go through here.
 */
std::optional<std::uint64_t> toCount(double v,
                                     std::uint64_t max = UINT64_MAX);

} // namespace cedar::tools

#endif // CEDAR_TOOLS_BENCH_JSON_HH
