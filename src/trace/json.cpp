#include "trace/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace armbar::trace {

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

Json& Json::push(Json v) {
  items_.push_back(std::move(v));
  return *this;
}

Json& Json::set(std::string key, Json v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
  return *this;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
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
  out += '"';
}

void append_number(std::string& out, double v) {
  // Integral values print without a fraction so cycle counts and counters
  // survive a dump/parse round trip textually.
  if (std::floor(v) == v && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    out += buf;
  }
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty())
      err = what + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) == lit) {
      pos += lit.size();
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) break;
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // BMP-only UTF-8 encode; enough for our ASCII-dominated docs.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    char c = text[pos];
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal");
      out = Json();
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal");
      out = Json(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal");
      out = Json(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      out = Json::array();
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Json item;
        if (!parse_value(item)) return false;
        out.push(std::move(item));
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos;
      out = Json::object();
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        if (!consume(':')) return fail("expected ':'");
        // A repeated member would silently replace the first; writers
        // never emit one, so it marks a corrupt document.
        if (out.find(key) != nullptr)
          return fail("duplicate key \"" + key + "\"");
        Json val;
        if (!parse_value(val)) return false;
        out.set(std::move(key), std::move(val));
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    // number
    {
      const char* begin = text.data() + pos;
      char* end = nullptr;
      double v = std::strtod(begin, &end);
      if (end == begin) return fail("expected value");
      pos += static_cast<std::size_t>(end - begin);
      out = Json(v);
      return true;
    }
  }
};

}  // namespace

Json Json::parse(std::string_view text, std::string* err) {
  Parser p{text, 0, {}};
  Json out;
  if (!p.parse_value(out)) {
    if (err) *err = p.err;
    return Json();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err) *err = "trailing garbage at offset " + std::to_string(p.pos);
    return Json();
  }
  if (err) err->clear();
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
  const std::string closing_pad = pretty ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, num_); break;
    case Type::kString: append_escaped(out, str_); break;
    case Type::kArray: {
      if (items_.empty()) { out += "[]"; break; }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += pad;
        items_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += nl;
      }
      out += closing_pad;
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) { out += "{}"; break; }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += pad;
        append_escaped(out, members_[i].first);
        out += colon;
        members_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      out += closing_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace armbar::trace
