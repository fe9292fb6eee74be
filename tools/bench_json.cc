#include "bench_json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <system_error>

namespace cedar::tools
{

namespace
{

/** Past this many buffered bytes the writer hands them over. */
constexpr std::size_t flush_threshold = 64 * 1024;

/** Append @p s escaped and quoted per RFC 8259. */
void
appendQuoted(std::string &out, std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    out += '"';
    std::size_t run = 0; // start of the pending run of plain bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

/**
 * Append the `%.{p}g` form of @p v for the smallest p that parses
 * back exactly (capped at 17, which always does). No p below the
 * shortest round-trip digit count can parse back, so the search
 * starts there; it cannot simply take the shortest form, because
 * `%.{p}g` rounds correctly to p digits while the shortest form may
 * pick another p-digit number in the rounding interval (and prints
 * exponents differently).
 */
void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null"; // JSON has no inf/nan
        return;
    }
    char buf[32];
    const auto sci =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific);
    int prec = 0;
    for (const char *c = buf; c != sci.ptr && *c != 'e'; ++c)
        prec += (*c >= '0' && *c <= '9');
    for (;; ++prec) {
        const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                     std::chars_format::general, prec);
        double back = 0;
        const auto parsed = std::from_chars(buf, r.ptr, back);
        if (prec >= 17 || (parsed.ec == std::errc() && back == v)) {
            out.append(buf, r.ptr);
            return;
        }
    }
}

template <typename Int>
void
appendInt(std::string &out, Int v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

} // namespace

JsonWriter::~JsonWriter()
{
    try {
        flush();
    } catch (...) {
        // A stream set to throw keeps its failure on its state.
    }
}

std::string
JsonWriter::quoted(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendQuoted(out, s);
    return out;
}

std::string
JsonWriter::number(double v)
{
    std::string out;
    appendNumber(out, v);
    return out;
}

void
JsonWriter::flush()
{
    if (buf_.empty())
        return;
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
JsonWriter::flushIfDue()
{
    if (stack_.empty() || buf_.size() >= flush_threshold)
        flush();
}

void
JsonWriter::separator()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already emitted "...": for this value
    }
    if (!stack_.empty()) {
        if (!firstInCtx_)
            buf_ += ',';
        buf_ += '\n';
        indent();
    }
    firstInCtx_ = false;
}

void
JsonWriter::indent()
{
    buf_.append(2 * stack_.size(), ' ');
}

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    stack_.push_back(Ctx::object);
    firstInCtx_ = true;
    buf_ += '{';
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    stack_.pop_back();
    if (!firstInCtx_) {
        buf_ += '\n';
        indent();
    }
    firstInCtx_ = false;
    buf_ += '}';
    if (stack_.empty())
        buf_ += '\n';
    flushIfDue();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separator();
    stack_.push_back(Ctx::array);
    firstInCtx_ = true;
    buf_ += '[';
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    stack_.pop_back();
    if (!firstInCtx_) {
        buf_ += '\n';
        indent();
    }
    firstInCtx_ = false;
    buf_ += ']';
    flushIfDue();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separator();
    appendQuoted(buf_, k);
    buf_ += ": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separator();
    appendQuoted(buf_, v);
    flushIfDue();
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separator();
    appendNumber(buf_, v);
    flushIfDue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separator();
    appendInt(buf_, v);
    flushIfDue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separator();
    appendInt(buf_, v);
    flushIfDue();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separator();
    buf_ += v ? "true" : "false";
    flushIfDue();
    return *this;
}

// ---------------------------------------------------------------
// Reader
// ---------------------------------------------------------------

/** Recursive-descent parser over the emitter's JSON subset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonParseError("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char *w)
    {
        const std::size_t n = std::string(w).size();
        if (s_.compare(pos_, n, w) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    value()
    {
        const char c = peek();
        JsonValue v;
        switch (c) {
        case '{': {
            v.kind_ = JsonValue::Kind::object;
            ++pos_;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                if (peek() != '"')
                    fail("expected object key");
                std::string k = string();
                expect(':');
                v.obj_.emplace_back(std::move(k), value());
                const char n = peek();
                ++pos_;
                if (n == '}')
                    return v;
                if (n != ',')
                    fail("expected ',' or '}' in object");
            }
        }
        case '[': {
            v.kind_ = JsonValue::Kind::array;
            ++pos_;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.arr_.push_back(value());
                const char n = peek();
                ++pos_;
                if (n == ']')
                    return v;
                if (n != ',')
                    fail("expected ',' or ']' in array");
            }
        }
        case '"':
            v.kind_ = JsonValue::Kind::string;
            v.str_ = string();
            return v;
        case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::boolean;
            v.b_ = true;
            return v;
        case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::boolean;
            v.b_ = false;
            return v;
        case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            v.kind_ = JsonValue::Kind::null;
            return v;
        default:
            return number();
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            c = s_[pos_++];
            switch (c) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // The emitter only writes \u00xx control escapes;
                // reject surrogates rather than mis-decode them.
                if (cp >= 0xd800 && cp <= 0xdfff)
                    fail("surrogate \\u escapes unsupported");
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
            }
            default:
                fail("bad escape character");
            }
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return out;
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            const std::size_t d0 = pos_;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
            if (pos_ == d0)
                fail("expected digits");
        };
        digits();
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            digits();
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            digits();
        }
        JsonValue v;
        v.kind_ = JsonValue::Kind::number;
        const char *first = s_.data() + start;
        const char *last = s_.data() + pos_;
        if (std::from_chars(first, last, v.num_).ec != std::errc())
            v.num_ = outOfRange(std::string_view(first, last - first));
        return v;
    }

    /**
     * The value of a validated token that std::from_chars declines
     * as out of range. Correctly rounded, it is then ±inf or ±0 (what
     * strtod returns): ±inf exactly when the token's leading nonzero
     * digit sits at a decimal exponent >= 0.
     */
    static double
    outOfRange(std::string_view tok)
    {
        const bool neg = tok.front() == '-';
        const std::size_t e = std::min(tok.find_first_of("eE"), tok.size());
        const std::string_view mant = tok.substr(neg, e - neg);
        const std::size_t dot = std::min(mant.find('.'), mant.size());
        const std::size_t lead = mant.find_first_not_of("0.");
        long long exp = lead == std::string_view::npos ? 0
                        : lead < dot ? static_cast<long long>(dot - lead - 1)
                                     : -static_cast<long long>(lead - dot);
        long long given = 0; // saturates: a token can be any length
        for (std::size_t k = e + 1; k < tok.size(); ++k)
            if (tok[k] >= '0' && tok[k] <= '9' && given < 1'000'000'000)
                given = given * 10 + (tok[k] - '0');
        exp += e + 1 < tok.size() && tok[e + 1] == '-' ? -given : given;
        const double mag =
            lead != std::string_view::npos && exp >= 0 ? HUGE_VAL : 0.0;
        return neg ? -mag : mag;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::boolean)
        throw JsonParseError("JSON value is not a boolean");
    return b_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::number)
        throw JsonParseError("JSON value is not a number");
    return num_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::string)
        throw JsonParseError("JSON value is not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::array)
        throw JsonParseError("JSON value is not an array");
    return arr_;
}

const JsonValue &
JsonValue::at(const std::string &k) const
{
    if (kind_ != Kind::object)
        throw JsonParseError("JSON value is not an object");
    for (const auto &kv : obj_)
        if (kv.first == k)
            return kv.second;
    throw JsonParseError("missing JSON key \"" + k + "\"");
}

bool
JsonValue::has(const std::string &k) const
{
    if (kind_ != Kind::object)
        return false;
    for (const auto &kv : obj_)
        if (kv.first == k)
            return true;
    return false;
}

JsonValue
JsonValue::parse(const std::string &text)
{
    return JsonParser(text).document();
}

double
numOr(const JsonValue &obj, const std::string &key, double dflt)
{
    return obj.has(key) ? obj.at(key).asNumber() : dflt;
}

std::string
strOr(const JsonValue &obj, const std::string &key)
{
    return obj.has(key) ? obj.at(key).asString() : std::string();
}

std::optional<std::uint64_t>
toCount(double v, std::uint64_t max)
{
    // 0x1p64 is the first double past the uint64_t range; the negated
    // test also turns NaN away.
    if (!(v >= 0.0 && v < 0x1p64) || v != std::trunc(v))
        return std::nullopt;
    const auto n = static_cast<std::uint64_t>(v);
    if (n > max)
        return std::nullopt;
    return n;
}

} // namespace cedar::tools
