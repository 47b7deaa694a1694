#ifndef VTRANS_COMMON_CLI_H_
#define VTRANS_COMMON_CLI_H_

/**
 * @file
 * A minimal command-line flag parser shared by the bench and example
 * binaries. Supports `--flag`, `--key=value` and `--key value` forms.
 * Every accessor records the name it was asked for, so a binary that
 * calls rejectUnknown() after its last read turns a mistyped or
 * unsupported flag into an error instead of a silent default run.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace vtrans {

/** Parsed command-line flags with typed accessors and defaults. */
class Cli
{
  public:
    /** Parses argv; unknown positional arguments are kept in order. */
    Cli(int argc, const char* const* argv);

    /** True if `--name` was present (with or without a value). */
    bool has(const std::string& name) const;

    /** Returns the string value of `--name[=value]`, or `def`. */
    std::string str(const std::string& name, const std::string& def) const;

    /** Returns the integer value of `--name`, or `def`. A value that is
     *  not entirely a base-10 integer in range is fatal. */
    int64_t num(const std::string& name, int64_t def) const;

    /** Returns the floating value of `--name`, or `def`. A value that is
     *  not entirely a number in range is fatal. */
    double real(const std::string& name, double def) const;

    /** Positional (non-flag) arguments. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** The binary name (argv[0]). */
    const std::string& program() const { return program_; }

    /**
     * Fatal (VT_FATAL) if the command line holds a flag that no accessor
     * has been asked for, naming it and the flags this run reads. Call
     * once every flag the run depends on has been read.
     */
    void rejectUnknown() const;

  private:
    /** The first non-empty value of `--name`, or nullptr. */
    const std::string* value(const std::string& name) const;

    std::string program_;
    std::vector<std::pair<std::string, std::string>> flags_;
    mutable std::set<std::string> read_; ///< Names the accessors saw.
    std::vector<std::string> positional_;
};

} // namespace vtrans

#endif // VTRANS_COMMON_CLI_H_
