#include "common/cli.h"

#include <cerrno>
#include <cstdlib>

#include "common/status.h"

namespace vtrans {

Cli::Cli(int argc, const char* const* argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0
                   && (std::string(argv[i + 1]).empty()
                       || std::string(argv[i + 1])[0] != '-')) {
            // `--key value` form; consume the next token as the value.
            flags_.emplace_back(arg, argv[++i]);
        } else {
            flags_.emplace_back(arg, "");
        }
    }
}

bool
Cli::has(const std::string& name) const
{
    read_.insert(name);
    for (const auto& [k, v] : flags_) {
        if (k == name) {
            return true;
        }
    }
    return false;
}

std::string
Cli::str(const std::string& name, const std::string& def) const
{
    read_.insert(name);
    for (const auto& [k, v] : flags_) {
        if (k == name) {
            return v;
        }
    }
    return def;
}

const std::string*
Cli::value(const std::string& name) const
{
    read_.insert(name);
    for (const auto& [k, v] : flags_) {
        if (k == name && !v.empty()) {
            return &v;
        }
    }
    return nullptr;
}

int64_t
Cli::num(const std::string& name, int64_t def) const
{
    const std::string* v = value(name);
    if (v == nullptr) {
        return def;
    }
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
        VT_FATAL("--", name, " expects an integer, got '", *v, "'");
    }
    return parsed;
}

double
Cli::real(const std::string& name, double def) const
{
    const std::string* v = value(name);
    if (v == nullptr) {
        return def;
    }
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
        VT_FATAL("--", name, " expects a number, got '", *v, "'");
    }
    return parsed;
}

void
Cli::rejectUnknown() const
{
    for (const auto& [k, v] : flags_) {
        if (read_.count(k) != 0) {
            continue;
        }
        std::string known;
        for (const auto& name : read_) {
            known += known.empty() ? "--" : ", --";
            known += name;
        }
        VT_FATAL(program_, ": unknown flag --", k,
                 " (this run reads: ", known.empty() ? "none" : known, ")");
    }
}

} // namespace vtrans
