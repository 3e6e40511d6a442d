#include "runner/arg_parser.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace armbar::runner {

bool parse_int_option(const std::string& name, const std::string& text,
                      std::int64_t min, std::int64_t max, std::int64_t* out,
                      std::string* err) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0') {
    if (err)
      *err = "option '--" + name + "' expects an integer, got '" + text + "'";
    return false;
  }
  if (errno == ERANGE || v < min || v > max) {
    if (err)
      *err = "option '--" + name + "' value " + text + " out of range [" +
             std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = v;
  return true;
}

ArgParser::ArgParser(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description)) {}

void ArgParser::add(Opt o) {
  ARMBAR_CHECK_MSG(find(o.name) == nullptr, "duplicate option");
  opts_.push_back(std::move(o));
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  add({name, "", help, "", Kind::kFlag});
}

void ArgParser::add_value(const std::string& name, const std::string& value_name,
                          const std::string& help, const std::string& def) {
  add({name, value_name, help, def, Kind::kValue, def});
}

void ArgParser::add_optional_value(const std::string& name,
                                   const std::string& value_name,
                                   const std::string& help,
                                   const std::string& def) {
  add({name, value_name, help, def, Kind::kOptionalValue, def});
}

void ArgParser::add_int(const std::string& name, const std::string& value_name,
                        const std::string& help, std::int64_t def,
                        std::int64_t min, std::int64_t max) {
  ARMBAR_CHECK_MSG(min <= def && def <= max, "default outside [min, max]");
  add({name, value_name, help, std::to_string(def), Kind::kInt, "", def, min,
       max});
}

ArgParser::Opt* ArgParser::find(const std::string& name) {
  for (auto& o : opts_)
    if (o.name == name) return &o;
  return nullptr;
}

const ArgParser::Opt* ArgParser::find(const std::string& name) const {
  for (const auto& o : opts_)
    if (o.name == name) return &o;
  return nullptr;
}

bool ArgParser::parse(int argc, char** argv, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    Opt* o = find(name);
    if (o == nullptr) {
      if (err) *err = "unknown option '--" + name + "' (see --help)";
      return false;
    }
    o->given = true;
    if (o->kind == Kind::kFlag) {
      if (eq != std::string::npos) {
        if (err) *err = "option '--" + name + "' does not take a value";
        return false;
      }
      continue;
    }
    if (eq != std::string::npos) {
      o->value = arg.substr(eq + 1);
    } else if (o->kind == Kind::kOptionalValue) {
      o->value = "";  // present without a value
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      o->value = argv[++i];  // never an option: `--out --quiet` is an error
    } else {
      if (err) *err = "option '--" + name + "' requires a value";
      return false;
    }
    o->values.push_back(o->value);
  }
  // Validate every integer option up front so `--jobs=abc` or an overflow
  // is a clean parse error, not an abort (or garbage) at first access.
  for (Opt& o : opts_)
    if (o.kind == Kind::kInt && o.given &&
        !parse_int_option(o.name, o.value, o.imin, o.imax, &o.ival, err))
      return false;
  return true;
}

bool ArgParser::given(const std::string& name) const {
  const Opt* o = find(name);
  ARMBAR_CHECK_MSG(o != nullptr, "querying unregistered option");
  return o->given;
}

const std::string& ArgParser::str(const std::string& name) const {
  const Opt* o = find(name);
  ARMBAR_CHECK_MSG(o != nullptr, "querying unregistered option");
  return o->value;
}

const std::vector<std::string>& ArgParser::values(const std::string& name) const {
  const Opt* o = find(name);
  ARMBAR_CHECK_MSG(o != nullptr, "querying unregistered option");
  return o->values;
}

std::int64_t ArgParser::integer(const std::string& name) const {
  const Opt* o = find(name);
  ARMBAR_CHECK_MSG(o != nullptr && o->kind == Kind::kInt,
                   "querying an option not registered with add_int");
  return o->ival;  // validated by parse()
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << "usage: " << prog_ << " [options]\n";
  if (!description_.empty()) os << "\n" << description_ << "\n";
  os << "\noptions:\n";
  std::size_t width = 0;
  auto lhs = [](const Opt& o) {
    switch (o.kind) {
      case Kind::kFlag: return "--" + o.name;
      case Kind::kValue:
      case Kind::kInt: return "--" + o.name + " <" + o.value_name + ">";
      case Kind::kOptionalValue: return "--" + o.name + "[=" + o.value_name + "]";
    }
    return std::string{};
  };
  for (const auto& o : opts_) width = std::max(width, lhs(o).size());
  for (const auto& o : opts_) {
    const std::string l = lhs(o);
    os << "  " << l << std::string(width - l.size() + 2, ' ') << o.help;
    if (!o.def.empty()) os << " (default: " << o.def << ")";
    os << "\n";
  }
  os << "  --help" << std::string(width > 4 ? width - 4 : 2, ' ')
     << "show this message\n";
  return os.str();
}

}  // namespace armbar::runner
