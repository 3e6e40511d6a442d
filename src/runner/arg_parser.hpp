// Small shared command-line parser for every armbar binary with options.
//
// Four option shapes cover the whole CLI surface:
//   * flag          --list                 (boolean, no value)
//   * value         --out D / --out=D      (value required; may repeat)
//   * optional      --json / --json=path   (value optional)
//   * integer       --jobs 8 / --jobs=8    (validated at parse time)
// Malformed numbers are parse errors up front, and help() autogenerates the
// usage text so a binary's --help can never drift from what it accepts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace armbar::runner {

/// The check every add_int option gets at parse() time, for integers that
/// arrive some other way (a list element, a repeated option, a positional):
/// parse `text` as a base-10 integer in [min, max] into *out. Malformed text
/// ("abc", "1x", ""), a value that overflows 64 bits and a value outside the
/// range return false and fill *err with a message naming `--name`.
bool parse_int_option(const std::string& name, const std::string& text,
                      std::int64_t min, std::int64_t max, std::int64_t* out,
                      std::string* err);

class ArgParser {
 public:
  ArgParser(std::string prog, std::string description);

  /// Boolean switch: present or absent, never takes a value.
  void add_flag(const std::string& name, const std::string& help);
  /// Option with a required value (`--name V` or `--name=V`). It may repeat:
  /// str() reads the last occurrence, values() every one.
  void add_value(const std::string& name, const std::string& value_name,
                 const std::string& help, const std::string& def = "");
  /// Option whose value is optional (`--name` or `--name=V`; never `--name V`,
  /// so a following positional is not swallowed).
  void add_optional_value(const std::string& name, const std::string& value_name,
                          const std::string& help, const std::string& def = "");
  /// Integer option with a required value, validated at parse() time:
  /// malformed text ("abc", "1x"), values that overflow 64 bits, and values
  /// outside [min, max] all make parse() fail with a clear message instead
  /// of aborting at first access. Read back with integer(name).
  void add_int(const std::string& name, const std::string& value_name,
               const std::string& help, std::int64_t def,
               std::int64_t min = INT64_MIN, std::int64_t max = INT64_MAX);

  /// Parse argv. Returns false and fills *err on an unknown option, a
  /// missing required value, or a malformed typed value accessed later.
  /// `--help` sets help_requested() and returns true without consuming more.
  bool parse(int argc, char** argv, std::string* err);

  bool help_requested() const { return help_requested_; }

  /// True when the option appeared on the command line.
  bool given(const std::string& name) const;
  /// String value (the default when not given; empty for a valueless
  /// appearance of an optional-value option).
  const std::string& str(const std::string& name) const;
  /// Every occurrence's value, in command-line order (empty when not
  /// given).
  const std::vector<std::string>& values(const std::string& name) const;
  /// Value of an add_int option: validated by parse(), or the registered
  /// default when absent.
  std::int64_t integer(const std::string& name) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Autogenerated usage text listing every registered option.
  std::string help() const;

 private:
  enum class Kind { kFlag, kValue, kOptionalValue, kInt };
  struct Opt {
    std::string name;        // without the leading "--"
    std::string value_name;  // e.g. "N", "PATH" (shown in help)
    std::string help;
    std::string def;
    Kind kind = Kind::kFlag;
    std::string value{};  // def until given (kInt: ""), then the last one
    std::int64_t ival = 0;  // kInt: validated value (default until given)
    std::int64_t imin = 0;
    std::int64_t imax = 0;
    bool given = false;
    std::vector<std::string> values{};  // every occurrence's value
  };

  void add(Opt o);
  Opt* find(const std::string& name);
  const Opt* find(const std::string& name) const;

  std::string prog_;
  std::string description_;
  std::vector<Opt> opts_;
  std::vector<std::string> positionals_;
  bool help_requested_ = false;
};

}  // namespace armbar::runner
