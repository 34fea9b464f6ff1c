// Minimal declarative CLI parser shared by the bench drivers
// (bench/common.hpp) and the campaign tools (tools/bsp-sweep.cpp), replacing
// the hand-rolled strcmp chains each driver used to carry. Supports long and
// short aliases, typed value options, repeatable options, hidden (internal)
// options, and a generated --help. Matches the historical bench behaviour:
// exits 0 on --help, exits 2 on an unknown option, a missing value, or —
// via the typed overloads and the parse_cli_* helpers — a malformed
// numeric value (trailing junk, overflow, or a negative where an unsigned
// is expected all reject; they no longer silently parse as 0).
#pragma once

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/bitops.hpp"

namespace bsp {

// Strict CLI numeric parsing. `what` names the option for the complaint
// (e.g. "--instructions"); any malformed value prints it and exits 2, the
// same contract as an unknown option. Base 0, so hex ("0x5eed") works.
inline u64 parse_cli_u64(const std::string& what, const std::string& v) {
  const char* s = v.c_str();
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(s, &end, 0);
  // strtoull silently wraps negatives into huge values; reject the sign
  // explicitly along with empty/partial parses and overflow.
  if (v.empty() || v.find('-') != std::string::npos || end == s ||
      *end != '\0' || errno == ERANGE) {
    std::cerr << what << ": invalid numeric value '" << v << "'\n";
    std::exit(2);
  }
  return static_cast<u64>(x);
}

inline unsigned parse_cli_unsigned(const std::string& what,
                                   const std::string& v) {
  const u64 x = parse_cli_u64(what, v);
  if (x > UINT_MAX) {
    std::cerr << what << ": value '" << v << "' out of range\n";
    std::exit(2);
  }
  return static_cast<unsigned>(x);
}

inline double parse_cli_double(const std::string& what,
                               const std::string& v) {
  const char* s = v.c_str();
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(s, &end);
  if (v.empty() || end == s || *end != '\0' || errno == ERANGE) {
    std::cerr << what << ": invalid numeric value '" << v << "'\n";
    std::exit(2);
  }
  return x;
}

class ArgParser {
 public:
  explicit ArgParser(std::string description)
      : description_(std::move(description)) {}

  // `names` is a comma-separated alias list, e.g. "-n, --instructions".
  // Aliases match exactly; the whole list is shown in --help.
  void add_flag(const std::string& names, const std::string& help,
                bool* out) {
    add_flag(names, help, [out] { *out = true; });
  }
  void add_flag(const std::string& names, const std::string& help,
                std::function<void()> fn) {
    options_.push_back({split(names), "", help,
                        [fn = std::move(fn)](const std::string&) { fn(); },
                        false, false});
  }

  // Value options; the typed conveniences parse strictly via parse_cli_*
  // (base 0, so hex "0x5eed" and decimal both work) and exit 2 on garbage
  // instead of silently yielding 0.
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help,
                 std::function<void(const std::string&)> fn) {
    options_.push_back(
        {split(names), placeholder, help, std::move(fn), true, false});
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, u64* out) {
    add_value(names, placeholder, help, [out, names](const std::string& v) {
      *out = parse_cli_u64(names, v);
    });
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, unsigned* out) {
    add_value(names, placeholder, help, [out, names](const std::string& v) {
      *out = parse_cli_unsigned(names, v);
    });
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, double* out) {
    add_value(names, placeholder, help, [out, names](const std::string& v) {
      *out = parse_cli_double(names, v);
    });
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, std::string* out) {
    add_value(names, placeholder, help,
              [out](const std::string& v) { *out = v; });
  }
  // Repeatable: every occurrence appends.
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, std::vector<std::string>* out) {
    add_value(names, placeholder, help,
              [out](const std::string& v) { out->push_back(v); });
  }
  void add_value(const std::string& names, const std::string& placeholder,
                 const std::string& help, std::vector<u64>* out) {
    add_value(names, placeholder, help, [out, names](const std::string& v) {
      out->push_back(parse_cli_u64(names, v));
    });
  }

  // Internal plumbing options (e.g. bsp-sweep's --worker-json): parsed like
  // any value option but left out of --help.
  void add_hidden_value(const std::string& names,
                        const std::string& placeholder,
                        const std::string& help,
                        std::function<void(const std::string&)> fn) {
    options_.push_back(
        {split(names), placeholder, help, std::move(fn), true, true});
  }
  void add_hidden_value(const std::string& names,
                        const std::string& placeholder,
                        const std::string& help, std::string* out) {
    add_hidden_value(names, placeholder, help,
                     [out](const std::string& v) { *out = v; });
  }

  // Parses argv[1..]; on --help/-h prints usage and exits 0, on an unknown
  // option or missing value prints a complaint and exits 2.
  void parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--help" || a == "-h") {
        print_help(std::cout);
        std::exit(0);
      }
      const Option* opt = find(a);
      if (!opt) {
        std::cerr << "unknown option " << a << " (try --help)\n";
        std::exit(2);
      }
      std::string value;
      if (opt->takes_value) {
        if (i + 1 >= argc) {
          std::cerr << a << " needs a value\n";
          std::exit(2);
        }
        value = argv[++i];
      }
      opt->apply(value);
    }
  }

  void print_help(std::ostream& os) const {
    os << description_ << "\n\nOptions:\n";
    std::vector<std::pair<std::string, std::string>> lines;
    std::size_t width = 0;
    for (const auto& o : options_) {
      if (o.hidden) continue;
      std::string left;
      for (std::size_t i = 0; i < o.names.size(); ++i) {
        if (i) left += ", ";
        left += o.names[i];
      }
      if (o.takes_value) left += " " + o.placeholder;
      width = std::max(width, left.size());
      lines.emplace_back(std::move(left), o.help);
    }
    lines.emplace_back("-h, --help", "show this help");
    width = std::max(width, lines.back().first.size());
    for (const auto& [left, help] : lines)
      os << "  " << left << std::string(width - left.size() + 3, ' ') << help
         << "\n";
  }

 private:
  struct Option {
    std::vector<std::string> names;
    std::string placeholder;
    std::string help;
    std::function<void(const std::string&)> apply;
    bool takes_value;
    bool hidden;
  };

  static std::vector<std::string> split(const std::string& names) {
    std::vector<std::string> out;
    std::string cur;
    for (const char c : names) {
      if (c == ',') {
        if (!cur.empty()) out.push_back(cur);
        cur.clear();
      } else if (c != ' ') {
        cur += c;
      }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
  }

  const Option* find(const std::string& name) const {
    for (const auto& o : options_)
      for (const auto& n : o.names)
        if (n == name) return &o;
    return nullptr;
  }

  std::string description_;
  std::vector<Option> options_;
};

}  // namespace bsp
