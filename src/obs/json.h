#ifndef VTRANS_OBS_JSON_H_
#define VTRANS_OBS_JSON_H_

/**
 * @file
 * A minimal recursive-descent JSON reader. The observability layer
 * *emits* JSON (Chrome trace events, hotspot reports, JSON-lines run
 * logs); this reader exists so the exports can be validated — by the
 * test suite and by `tools/check.sh`, which reuses the test binary as
 * its artifact validator — without any external dependency.
 *
 * Supports the full JSON grammar except `\uXXXX` surrogate pairs (the
 * escape is decoded as a single code point truncated to one byte, which
 * covers everything our own escaper emits). Numbers read as doubles and
 * keep their literal text, so an integer past 2^53 still reads exactly
 * (`integer`).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vtrans::obs {

/** One parsed JSON value (a small tagged tree). */
class JsonValue
{
  public:
    enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Value accessors; fatal if the kind does not match. */
    bool boolean() const;
    double number() const;
    const std::string& str() const;
    const std::vector<JsonValue>& array() const;
    const std::map<std::string, JsonValue>& object() const;

    /** True and `*out` set when this is a number written as an integer
     *  literal in [0, 2^64); false (and `*out` untouched) otherwise. */
    bool integer(uint64_t* out) const;

    /** Object member lookup; nullptr when absent (or not an object). */
    const JsonValue* find(const std::string& key) const;

    /** Convenience: member's number/string with a default. */
    double numberOr(const std::string& key, double def) const;
    std::string strOr(const std::string& key,
                      const std::string& def) const;

    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n, std::string literal);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::map<std::string, JsonValue> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;  ///< A string's value or a number's literal.
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/**
 * Parses one JSON document. Returns nullptr and fills `error` (if
 * non-null) with a position-annotated message on malformed input;
 * trailing non-whitespace after the document is an error.
 */
std::unique_ptr<JsonValue> parseJson(const std::string& text,
                                     std::string* error = nullptr);

} // namespace vtrans::obs

#endif // VTRANS_OBS_JSON_H_
