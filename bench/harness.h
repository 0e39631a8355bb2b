// Shared plumbing for the bench targets: a flag table, a JSON writer and
// the timing helpers.
//
//   std::size_t stripes = 4;
//   std::string json_path = "BENCH_x.json";
//   bench::Flags flags;
//   flags.add("stripes", stripes, "stripes per file")
//       .add("json", json_path, "output path");
//   if (const auto exit_code = flags.parse(argc, argv)) return *exit_code;
//   ...
//   bench::JsonWriter json(json_path);
//   json.field("bench", "x").array("results");
//   for (...) json.object().field("scheme", s.scheme).end();
//   json.end();
//   if (!json.finish()) return 1;
//
// Flags are `--name=value`, or a bare `--name` for bools. `--help` / `-h`
// prints the generated usage and exits 0. An unknown argument, a missing
// or malformed value, or a negative or overflowing value for an unsigned
// flag prints one line to stderr and exits 2.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace dblrep::bench {

// ------------------------------------------------------------------- flags

/// Parses all of `text` as a decimal number (unsigned: no sign accepted)
/// into `out`; false, leaving `out` alone, on anything else or overflow.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end) return false;
  out = value;
  return true;
}

/// Comma-separated items, empty items dropped ("a,,b," -> {a, b}).
inline std::vector<std::string> split_csv(std::string_view text) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const std::size_t comma = std::min(text.find(','), text.size());
    if (comma > 0) out.emplace_back(text.substr(0, comma));
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return out;
}

inline bool parse_value(std::string_view text, std::size_t& out) {
  return parse_number(text, out);
}
inline bool parse_value(std::string_view text, double& out) {
  return parse_number(text, out);
}
inline bool parse_value(std::string_view text, std::string& out) {
  out = text;
  return true;
}
inline bool parse_value(std::string_view text, std::vector<std::string>& out) {
  out = split_csv(text);
  return true;
}
inline bool parse_value(std::string_view text, std::vector<std::size_t>& out) {
  std::vector<std::size_t> sizes;
  for (const std::string& item : split_csv(text)) {
    if (!parse_number(item, sizes.emplace_back())) return false;
  }
  out = std::move(sizes);
  return true;
}

class Flags {
 public:
  /// Declares `--name` writing into `target`: a size_t, double, string,
  /// bool, or a comma-separated list of strings or sizes. The target's
  /// current value is the default, kept when the flag is absent.
  template <typename T>
  Flags& add(std::string name, T& target, std::string help) {
    Flag flag{std::move(name), placeholder<T>(), std::move(help), {}};
    if constexpr (std::is_same_v<T, bool>) {
      flag.set = [&target](std::string_view) { return target = true; };
    } else {
      flag.set = [&target](std::string_view v) { return parse_value(v, target); };
      std::ostringstream shown;
      if constexpr (std::is_same_v<T, std::vector<std::string>> ||
                    std::is_same_v<T, std::vector<std::size_t>>) {
        for (std::size_t i = 0; i < target.size(); ++i) {
          shown << (i ? "," : "") << target[i];
        }
      } else {
        shown << target;
      }
      if (!shown.str().empty()) flag.help += " (default " + shown.str() + ")";
    }
    flags_.push_back(std::move(flag));
    return *this;
  }

  /// Parses argv into the declared targets. Returns the exit code `main`
  /// should return (0 after `--help`, 2 on a bad argument), or nullopt to
  /// continue.
  std::optional<int> parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::fputs(usage(argv[0]).c_str(), stdout);
        return 0;
      }
      const std::size_t eq = arg.find('=');
      const auto flag = std::find_if(
          flags_.begin(), flags_.end(), [&](const Flag& f) {
            return arg.substr(0, 2) == "--" && arg.substr(2, eq - 2) == f.name;
          });
      const bool has_value = eq != std::string_view::npos;
      const bool is_bool = flag != flags_.end() && flag->placeholder.empty();
      std::string why;
      if (flag == flags_.end()) {
        why = "unknown flag";
      } else if (is_bool && has_value) {
        why = "takes no value";
      } else if (!is_bool && !has_value) {
        why = "needs a value, as in --" + flag->name + flag->placeholder;
      } else if (!flag->set(has_value ? arg.substr(eq + 1) : "")) {
        why = "bad value";
      }
      if (!why.empty()) {
        std::fprintf(stderr, "%s: %s: %s (see --help)\n", argv[0], argv[i],
                     why.c_str());
        return 2;
      }
    }
    return std::nullopt;
  }

 private:
  struct Flag {
    std::string name;
    std::string placeholder;  // "=N" etc.; empty for bools
    std::string help;
    std::function<bool(std::string_view)> set;
  };

  std::string usage(std::string_view program) const {
    std::string out = "Usage: " + std::string(program) + " [flags]\n";
    const auto line = [&out](std::string lhs, const std::string& help) {
      lhs.resize(std::max<std::size_t>(lhs.size() + 2, 28), ' ');
      out += lhs + help + "\n";
    };
    for (const Flag& flag : flags_) {
      line("  --" + flag.name + flag.placeholder, flag.help);
    }
    line("  --help", "print this message and exit");
    return out;
  }

  template <typename T>
  static const char* placeholder() {
    if constexpr (std::is_same_v<T, bool>) return "";
    if constexpr (std::is_same_v<T, std::size_t>) return "=N";
    if constexpr (std::is_same_v<T, double>) return "=X";
    if constexpr (std::is_same_v<T, std::string>) return "=STR";
    if constexpr (std::is_same_v<T, std::vector<std::string>>) return "=A,B";
    return "=N,N";
  }

  std::vector<Flag> flags_;
};

// -------------------------------------------------------------------- JSON

/// Streams one JSON object to a file. The constructor opens the root
/// object, finish() closes it. The root and its direct children put each
/// member on its own line; deeper containers are written inline. Numbers
/// go through the stream's default `operator<<`, exactly as a bare
/// `std::ofstream << value` prints them.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)), out_(path_) {
    out_ << "{";
    stack_.push_back({'}'});
  }

  template <typename T>
  JsonWriter& field(std::string_view key, const T& value) {
    member(key);
    if constexpr (std::is_same_v<T, bool>) {
      out_ << (value ? "true" : "false");
    } else if constexpr (std::is_arithmetic_v<T>) {
      out_ << value;
    } else {
      write_string(value);
    }
    return *this;
  }

  /// Array element.
  template <typename T>
  JsonWriter& item(const T& value) {
    return field({}, value);
  }

  /// `key` is required inside an object and ignored inside an array.
  JsonWriter& object(std::string_view key = {}) { return open(key, '{', '}'); }
  JsonWriter& array(std::string_view key = {}) { return open(key, '[', ']'); }

  /// Already-serialized JSON (e.g. a report's own to_json()), verbatim.
  JsonWriter& raw(std::string_view key, std::string_view json) {
    member(key);
    out_ << json;
    return *this;
  }

  /// Closes the innermost object or array.
  JsonWriter& end() {
    DBLREP_CHECK_MSG(stack_.size() > 1, "JsonWriter::end without open");
    const Level level = stack_.back();
    stack_.pop_back();
    if (level.members > 0 && stack_.size() < 2) newline();
    out_ << level.close;
    return *this;
  }

  /// Closes the root object and flushes. False, after one line on stderr,
  /// when the file could not be opened or any write failed.
  bool finish() {
    DBLREP_CHECK_MSG(stack_.size() == 1, "JsonWriter: unclosed container");
    stack_.clear();
    out_ << "\n}\n";
    out_.flush();
    if (out_.is_open() && out_.good()) return true;
    std::fprintf(stderr, "cannot write %s\n", path_.c_str());
    return false;
  }

 private:
  struct Level {
    char close;
    std::size_t members = 0;
  };

  void newline() { out_ << "\n" << std::string(2 * stack_.size(), ' '); }

  void member(std::string_view key) {
    Level& level = stack_.back();
    if (level.members++ > 0) out_ << (stack_.size() < 3 ? "," : ", ");
    if (stack_.size() < 3) newline();
    if (level.close == '}') {
      DBLREP_CHECK_MSG(!key.empty(), "JsonWriter: object member needs a key");
      write_string(key);
      out_ << ": ";
    }
  }

  JsonWriter& open(std::string_view key, char open, char close) {
    member(key);
    out_ << open;
    stack_.push_back({close});
    return *this;
  }

  /// Quotes `text`, escaping '"', '\' and control characters.
  void write_string(std::string_view text) {
    out_ << '"';
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char escaped[8];
        std::snprintf(escaped, sizeof escaped, "\\u%04x",
                      static_cast<unsigned>(c));
        out_ << escaped;
      } else {
        out_ << c;
      }
    }
    out_ << '"';
  }

  std::string path_;
  std::ofstream out_;
  std::vector<Level> stack_;
};

// ------------------------------------------------------------------ timing

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `fn` repeatedly for at least `min_time` seconds (after one warmup
/// call) and returns MB/s given `bytes` of data processed per call.
template <typename Fn>
double measure_mb_s(double min_time, std::size_t bytes, Fn&& fn) {
  fn();  // warmup: tables, arena growth, page faults
  std::size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++iters;
    elapsed = seconds_since(start);
  } while (elapsed < min_time);
  return static_cast<double>(bytes) * static_cast<double>(iters) /
         (elapsed * 1e6);
}

}  // namespace dblrep::bench
