// Minimal JSON validator (objects/arrays/strings/numbers/literals) for
// the tests. The repo has no JSON dependency; this is enough to assert
// that exported traces, metrics snapshots and flight dumps are
// well-formed (CI additionally runs python3 -m json.tool on the real
// artifacts).
#pragma once

#include <cstddef>
#include <string>

namespace ht::obs {

struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r'))
      ++i;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s.compare(i, n, lit) != 0) return false;
    i += n;
    return true;
  }
  bool string() {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool digits = false;
    auto eat_digits = [&] {
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
        ++i;
        digits = true;
      }
    };
    eat_digits();
    if (i < s.size() && s[i] == '.') {
      ++i;
      eat_digits();
    }
    if (digits && i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
      bool exp_digits = false;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
        ++i;
        exp_digits = true;
      }
      if (!exp_digits) return false;
    }
    return digits && i > start;
  }
  bool value() {  // NOLINT(misc-no-recursion)
    ws();
    if (i >= s.size()) return false;
    if (s[i] == '{') {
      ++i;
      ws();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      for (;;) {
        ws();
        if (!string()) return false;
        ws();
        if (i >= s.size() || s[i] != ':') return false;
        ++i;
        if (!value()) return false;
        ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        break;
      }
      ws();
      if (i >= s.size() || s[i] != '}') return false;
      ++i;
      return true;
    }
    if (s[i] == '[') {
      ++i;
      ws();
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      for (;;) {
        if (!value()) return false;
        ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        break;
      }
      ws();
      if (i >= s.size() || s[i] != ']') return false;
      ++i;
      return true;
    }
    if (s[i] == '"') return string();
    if (literal("true") || literal("false") || literal("null")) return true;
    return number();
  }
  bool parse() {
    const bool ok = value();
    ws();
    return ok && i == s.size();
  }
};

inline bool json_parses(const std::string& text) {
  JsonParser p{text};
  return p.parse();
}

}  // namespace ht::obs
