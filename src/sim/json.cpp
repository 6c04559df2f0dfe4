#include "sim/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace pracleak::sim {

JsonValue
JsonValue::array()
{
    JsonValue value;
    value.kind_ = Kind::Array;
    return value;
}

JsonValue
JsonValue::object()
{
    JsonValue value;
    value.kind_ = Kind::Object;
    return value;
}

bool
JsonValue::asBool() const
{
    switch (kind_) {
      case Kind::Bool: return bool_;
      case Kind::Int: return int_ != 0;
      case Kind::Double: return double_ != 0.0;
      case Kind::String: return string_ == "true" || string_ == "1";
      default: return false;
    }
}

std::int64_t
JsonValue::asInt() const
{
    switch (kind_) {
      case Kind::Bool: return bool_ ? 1 : 0;
      case Kind::Int: return int_;
      case Kind::Double: return static_cast<std::int64_t>(double_);
      case Kind::String: return std::strtoll(string_.c_str(), nullptr, 10);
      default: return 0;
    }
}

double
JsonValue::asDouble() const
{
    switch (kind_) {
      case Kind::Bool: return bool_ ? 1.0 : 0.0;
      case Kind::Int: return static_cast<double>(int_);
      case Kind::Double: return double_;
      case Kind::String: return std::strtod(string_.c_str(), nullptr);
      default: return 0.0;
    }
}

std::string
JsonValue::asString() const
{
    if (kind_ == Kind::String)
        return string_;
    if (kind_ == Kind::Array || kind_ == Kind::Object)
        return dump();
    std::string out;
    dumpTo(out, 0, 0);
    return out;
}

JsonValue &
JsonValue::push(JsonValue element)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        throw std::logic_error("JsonValue::push on non-array");
    items_.push_back(std::move(element));
    return *this;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        throw std::logic_error("JsonValue::set on non-object");
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

const JsonValue *
JsonValue::get(const std::string &key) const
{
    for (const auto &member : members_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

bool
JsonValue::scalarEquals(const JsonValue &other) const
{
    if (isNumber() && other.isNumber())
        return asDouble() == other.asDouble();
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null: return true;
      case Kind::Bool: return bool_ == other.bool_;
      case Kind::String: return string_ == other.string_;
      default: return false;
    }
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void
appendIndent(std::string &out, int indent, int depth)
{
    if (indent > 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * depth, ' ');
    }
}

std::string
formatDouble(double value, bool exact)
{
    if (std::isnan(value))
        return "null";
    if (std::isinf(value))
        return value > 0 ? "1e999" : "-1e999";
    char buf[32];
    // 17 significant digits round-trip any IEEE double exactly; 10
    // keep the display files readable.
    std::snprintf(buf, sizeof buf, exact ? "%.17g" : "%.10g", value);
    std::string out = buf;
    // %.17g renders integral doubles up to ~1e17 with no '.' or
    // exponent; mark them so a parse restores a Double, not an Int
    // (whose re-dump would differ byte-wise from the original).
    if (exact && out.find_first_of(".e") == std::string::npos)
        out += ".0";
    return out;
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth,
                  bool exactDoubles) const
{
    switch (kind_) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += bool_ ? "true" : "false"; break;
      case Kind::Int: out += std::to_string(int_); break;
      case Kind::Double:
        out += formatDouble(double_, exactDoubles);
        break;
      case Kind::String:
        out += '"';
        out += jsonEscape(string_);
        out += '"';
        break;
      case Kind::Array: {
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            appendIndent(out, indent, depth + 1);
            items_[i].dumpTo(out, indent, depth + 1, exactDoubles);
        }
        if (!items_.empty())
            appendIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            appendIndent(out, indent, depth + 1);
            out += '"';
            out += jsonEscape(members_[i].first);
            out += "\": ";
            members_[i].second.dumpTo(out, indent, depth + 1,
                                      exactDoubles);
        }
        if (!members_.empty())
            appendIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

std::string
JsonValue::dumpRoundTrip() const
{
    std::string out;
    dumpTo(out, 0, 0, /*exactDoubles=*/true);
    return out;
}

namespace {

/** Recursive-descent parser behind parseJson(). */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    bool parseDocument(JsonValue &out)
    {
        skipWhitespace();
        if (!parseValue(out, 0))
            return false;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing bytes after document");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    bool fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    bool consume(std::string_view literal)
    {
        if (text_.compare(pos_, literal.size(), literal) != 0)
            return fail("invalid literal");
        pos_ += literal.size();
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        // Journal rows nest a handful of levels; 64 is a corruption
        // guard, not a real limit.
        if (depth > 64)
            return fail("nesting too deep");
        if (atEnd())
            return fail("unexpected end of document");
        switch (text_[pos_]) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"': {
            std::string text;
            if (!parseString(text))
                return false;
            out = JsonValue(std::move(text));
            return true;
          }
          case 't':
            out = JsonValue(true);
            return consume("true");
          case 'f':
            out = JsonValue(false);
            return consume("false");
          case 'n':
            out = JsonValue();
            return consume("null");
          default: return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out, int depth)
    {
        out = JsonValue::object();
        ++pos_; // '{'
        skipWhitespace();
        if (!atEnd() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            if (atEnd() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (atEnd() || text_[pos_] != ':')
                return fail("expected ':' after key");
            ++pos_;
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.set(key, std::move(value));
            skipWhitespace();
            if (atEnd())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool parseArray(JsonValue &out, int depth)
    {
        out = JsonValue::array();
        ++pos_; // '['
        skipWhitespace();
        if (!atEnd() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            JsonValue element;
            if (!parseValue(element, depth + 1))
                return false;
            out.push(std::move(element));
            skipWhitespace();
            if (atEnd())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parseHex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        pos_ += 4;
        return true;
    }

    void appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x1'0000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (atEnd())
                return fail("unterminated escape");
            const char escape = text_[pos_++];
            switch (escape) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = 0;
                if (!parseHex4(code))
                    return false;
                if (code >= 0xD800 && code < 0xDC00 &&
                    pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                    text_[pos_ + 1] == 'u') {
                    pos_ += 2;
                    unsigned low = 0;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("bad low surrogate");
                    code = 0x1'0000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                }
                appendUtf8(out, code);
                break;
              }
              default: return fail("unknown escape");
            }
        }
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        bool isDouble = false;
        if (!atEnd() && text_[pos_] == '-')
            ++pos_;
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isDouble = true;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (token.empty() || token == "-") {
            pos_ = start;
            return fail("invalid number");
        }
        char *end = nullptr;
        // "-0" must stay a double: strtoll would fold it to integer
        // zero and lose the sign a re-dump needs.
        if (!isDouble && token != "-0") {
            errno = 0;
            const long long parsed =
                std::strtoll(token.c_str(), &end, 10);
            if (end == token.c_str() + token.size() && errno == 0) {
                out = JsonValue(static_cast<std::int64_t>(parsed));
                return true;
            }
            // int64 overflow (or trailing junk): retry as double.
        }
        const double parsed = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            pos_ = start;
            return fail("invalid number");
        }
        out = JsonValue(parsed);
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

JsonValue
parseJson(std::string_view text, std::string *error)
{
    JsonParser parser(text);
    JsonValue value;
    if (!parser.parseDocument(value)) {
        if (error)
            *error = parser.error();
        return JsonValue();
    }
    if (error)
        error->clear();
    return value;
}

JsonValue
parseScalar(const std::string &text)
{
    if (text == "true")
        return JsonValue(true);
    if (text == "false")
        return JsonValue(false);
    if (text == "null")
        return JsonValue();
    if (!text.empty()) {
        char *end = nullptr;
        errno = 0;
        const long long asInt = std::strtoll(text.c_str(), &end, 10);
        // Past int64 (ERANGE) it is the double it spells, as in
        // parseJson, not the clamped LLONG_MAX.
        if (end && *end == '\0' && errno == 0)
            return JsonValue(static_cast<std::int64_t>(asInt));
        const double asDouble = std::strtod(text.c_str(), &end);
        if (end && *end == '\0')
            return JsonValue(asDouble);
    }
    return JsonValue(text);
}

} // namespace pracleak::sim
