#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "common/status.h"

namespace vtrans::obs {

bool
JsonValue::boolean() const
{
    VT_ASSERT(isBool(), "JSON value is not a bool");
    return bool_;
}

double
JsonValue::number() const
{
    VT_ASSERT(isNumber(), "JSON value is not a number");
    return number_;
}

bool
JsonValue::integer(uint64_t* out) const
{
    if (!isNumber()) {
        return false;
    }
    const char* end = string_.data() + string_.size();
    const auto [ptr, ec] = std::from_chars(string_.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

const std::string&
JsonValue::str() const
{
    VT_ASSERT(isString(), "JSON value is not a string");
    return string_;
}

const std::vector<JsonValue>&
JsonValue::array() const
{
    VT_ASSERT(isArray(), "JSON value is not an array");
    return array_;
}

const std::map<std::string, JsonValue>&
JsonValue::object() const
{
    VT_ASSERT(isObject(), "JSON value is not an object");
    return object_;
}

const JsonValue*
JsonValue::find(const std::string& key) const
{
    if (!isObject()) {
        return nullptr;
    }
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

double
JsonValue::numberOr(const std::string& key, double def) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isNumber()) ? v->number() : def;
}

std::string
JsonValue::strOr(const std::string& key, const std::string& def) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isString()) ? v->str() : def;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n, std::string literal)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = n;
    v.string_ = std::move(literal);
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.array_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.object_ = std::move(members);
    return v;
}

namespace {

/** Recursive-descent parser over an in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    bool
    parse(JsonValue* out)
    {
        skipSpace();
        if (!parseValue(out)) {
            return false;
        }
        skipSpace();
        if (pos_ != text_.size()) {
            return fail("trailing characters after JSON document");
        }
        return true;
    }

    const std::string& error() const { return error_; }

  private:
    bool
    fail(const std::string& what)
    {
        error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    literal(const char* word)
    {
        size_t n = 0;
        while (word[n] != '\0') {
            ++n;
        }
        if (text_.compare(pos_, n, word) != 0) {
            return fail(std::string("expected '") + word + "'");
        }
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue* out)
    {
        if (pos_ >= text_.size()) {
            return fail("unexpected end of document");
        }
        switch (text_[pos_]) {
        case '{':
            return parseObject(out);
        case '[':
            return parseArray(out);
        case '"':
            return parseString(out);
        case 't':
            if (!literal("true")) {
                return false;
            }
            *out = JsonValue::makeBool(true);
            return true;
        case 'f':
            if (!literal("false")) {
                return false;
            }
            *out = JsonValue::makeBool(false);
            return true;
        case 'n':
            if (!literal("null")) {
                return false;
            }
            *out = JsonValue::makeNull();
            return true;
        default:
            return parseNumber(out);
        }
    }

    bool
    parseNumber(JsonValue* out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            return fail("expected a JSON value");
        }
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            pos_ = start;
            return fail("malformed number '" + token + "'");
        }
        *out = JsonValue::makeNumber(value, token);
        return true;
    }

    bool
    parseString(JsonValue* out)
    {
        std::string s;
        if (!parseRawString(&s)) {
            return false;
        }
        *out = JsonValue::makeString(std::move(s));
        return true;
    }

    bool
    parseRawString(std::string* out)
    {
        if (text_[pos_] != '"') {
            return fail("expected '\"'");
        }
        ++pos_;
        std::string s;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    return fail("unterminated escape");
                }
                switch (text_[pos_]) {
                case '"': s += '"'; break;
                case '\\': s += '\\'; break;
                case '/': s += '/'; break;
                case 'b': s += '\b'; break;
                case 'f': s += '\f'; break;
                case 'n': s += '\n'; break;
                case 'r': s += '\r'; break;
                case 't': s += '\t'; break;
                case 'u': {
                    if (pos_ + 4 >= text_.size()) {
                        return fail("truncated \\u escape");
                    }
                    unsigned code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        const char h = text_[pos_ + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            return fail("bad hex digit in \\u escape");
                        }
                    }
                    pos_ += 4;
                    s += static_cast<char>(code & 0xff);
                    break;
                }
                default:
                    return fail("unknown escape");
                }
                ++pos_;
            } else {
                s += c;
                ++pos_;
            }
        }
        if (pos_ >= text_.size()) {
            return fail("unterminated string");
        }
        ++pos_; // closing quote
        *out = std::move(s);
        return true;
    }

    bool
    parseArray(JsonValue* out)
    {
        ++pos_; // '['
        std::vector<JsonValue> items;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            *out = JsonValue::makeArray(std::move(items));
            return true;
        }
        while (true) {
            JsonValue item;
            skipSpace();
            if (!parseValue(&item)) {
                return false;
            }
            items.push_back(std::move(item));
            skipSpace();
            if (pos_ >= text_.size()) {
                return fail("unterminated array");
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                break;
            }
            return fail("expected ',' or ']' in array");
        }
        *out = JsonValue::makeArray(std::move(items));
        return true;
    }

    bool
    parseObject(JsonValue* out)
    {
        ++pos_; // '{'
        std::map<std::string, JsonValue> members;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            *out = JsonValue::makeObject(std::move(members));
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                return fail("expected object key");
            }
            std::string key;
            if (!parseRawString(&key)) {
                return false;
            }
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                return fail("expected ':' after object key");
            }
            ++pos_;
            skipSpace();
            JsonValue value;
            if (!parseValue(&value)) {
                return false;
            }
            members.emplace(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size()) {
                return fail("unterminated object");
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                break;
            }
            return fail("expected ',' or '}' in object");
        }
        *out = JsonValue::makeObject(std::move(members));
        return true;
    }

    const std::string& text_;
    size_t pos_ = 0;
    std::string error_;
};

} // namespace

std::unique_ptr<JsonValue>
parseJson(const std::string& text, std::string* error)
{
    Parser parser(text);
    auto value = std::make_unique<JsonValue>();
    if (!parser.parse(value.get())) {
        if (error != nullptr) {
            *error = parser.error();
        }
        return nullptr;
    }
    return value;
}

} // namespace vtrans::obs
