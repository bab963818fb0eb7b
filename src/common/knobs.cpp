#include "common/knobs.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace lazydram::knobs {

namespace {

Value default_value(const Knob& k) {
  Value v;
  if (*k.fallback != '\0') parse(k, k.fallback, &v);  // Knobs.TableRowsAreWellFormed
  return v;
}

void warn_bad(const char* name, const std::string& text, const Knob& k) {
  log_warn("%s='%s' not recognized (want %s); using the default (%s)", name, text.c_str(),
           accepted(k).c_str(), *k.fallback != '\0' ? k.fallback : "none");
}

}  // namespace

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  for (std::size_t start = 0; start <= text.size();) {
    const std::size_t end = std::min(text.find(sep, start), text.size());
    if (end > start) out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::optional<std::size_t> word_index(const Knob& k, const std::string& text) {
  const std::vector<std::string> words = split(k.words, '|');
  const auto it = std::find(words.begin(), words.end(), text);
  if (it == words.end()) return std::nullopt;
  return static_cast<std::size_t>(it - words.begin());
}

bool parse(const Knob& k, const std::string& text, Value* out) {
  switch (k.kind) {
    case Kind::kCount: {
      // The whole string must be digits: strtoull alone would take "8x" as 8,
      // skip leading blanks and wrap "-3".
      const std::string n = k.one_in_n && text.rfind("1/", 0) == 0 ? text.substr(2) : text;
      char* end = nullptr;
      errno = 0;
      out->count = std::strtoull(n.c_str(), &end, 10);
      return !n.empty() && n[0] >= '0' && n[0] <= '9' && *end == '\0' && errno == 0 &&
             out->count >= k.lo && out->count <= k.hi;
    }
    case Kind::kSeconds: {
      char* end = nullptr;
      out->seconds = std::strtod(text.c_str(), &end);
      // NaN fails both comparisons; inf and overflowed values fail the bound.
      return !text.empty() && *end == '\0' && out->seconds > 0.0 &&
             out->seconds <= static_cast<double>(k.hi);
    }
    case Kind::kSwitch:
      out->on = text == "1" || text == "on";
      return out->on || text == "0" || text == "off";
    case Kind::kWord:
    case Kind::kText:
      out->text = text;
      return k.kind == Kind::kText || word_index(k, text).has_value();
  }
  return false;
}

std::string accepted(const Knob& k) {
  const std::string lo = std::to_string(k.lo), hi = std::to_string(k.hi);
  switch (k.kind) {
    case Kind::kCount:
      return (k.hi >= kBig ? "a whole number >= " + lo
                           : "a whole number in [" + lo + ", " + hi + "]") +
             (k.one_in_n ? ", or 1/N" : "");
    case Kind::kSeconds: return "seconds in (0, " + hi + "]";
    case Kind::kSwitch: return k.env != nullptr ? "1|0|on|off" : "a bare flag";
    case Kind::kWord: return k.words;
    case Kind::kText: return k.value;
  }
  return "";
}

Value env(const Knob& k) {
  const char* raw = k.env != nullptr ? std::getenv(k.env) : nullptr;
  Value v;
  if (raw == nullptr || *raw == '\0') return default_value(k);
  if (parse(k, raw, &v)) return v;
  warn_bad(k.env, raw, k);
  return default_value(k);
}

std::uint64_t count(const Knob& k, std::uint64_t set) { return set ? set : env(k).count; }

double seconds(const Knob& k, double set) { return set > 0.0 ? set : env(k).seconds; }

bool on(const Knob& k, bool set) { return set != default_value(k).on ? set : env(k).on; }

std::string text(const Knob& k, const std::string& set) {
  if (set.empty()) return env(k).text;
  Value v;
  if (parse(k, set, &v)) return set;
  warn_bad(k.env != nullptr ? k.env : k.flag, set, k);
  return default_value(k).text;
}

bool Cli::parse(int argc, char** argv, std::string* error) {
  if (argc > 0) program_ = argv[0];
  program_ = program_.substr(program_.rfind('/') + 1);
  values_.clear();
  operands_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      operands_.push_back(arg);
      if (operands_.size() <= max_operands_) continue;
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    const auto row = std::find_if(rows_.begin(), rows_.end(),
                                  [&](const Knob* k) { return k->flag && arg == k->flag; });
    if (row == rows_.end()) {
      *error = "unknown flag '" + arg + "'";
      return false;
    }
    const Knob& k = **row;
    Value v{.on = true};
    if (k.kind != Kind::kSwitch) {
      if (i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        *error = arg + " needs a value (" + accepted(k) + ")";
        return false;
      }
      const std::string text = argv[++i];
      if (!knobs::parse(k, text, &v)) {
        *error = arg + " '" + text + "' not recognized (want " + accepted(k) + ")";
        return false;
      }
    }
    values_.emplace_back(&k, std::move(v));
  }
  return true;
}

void Cli::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(), usage().c_str());
  std::exit(2);
}

std::string Cli::usage() const {
  std::string out = "usage: " + program_ + (rows_.empty() ? "" : " [options]") +
                    (operand_usage_.empty() ? "" : " " + operand_usage_) + "\n";
  for (const Knob* k : rows_) {
    std::string head = std::string("  ") + k->flag + (*k->value ? " " : "") + k->value;
    head.resize(std::max<std::size_t>(head.size() + 1, 26), ' ');
    out += head + k->doc + " [" + (k->kind == Kind::kSwitch ? "a bare flag" : accepted(*k)) +
           (*k->fallback ? std::string("; default ") + k->fallback : "") +
           (k->env ? std::string("; env ") + k->env : "") + "]\n";
  }
  return out;
}

const Value* Cli::find(const Knob& k) const {
  // The last occurrence on the command line wins.
  for (auto it = values_.rbegin(); it != values_.rend(); ++it)
    if (it->first == &k) return &it->second;
  return nullptr;
}

Value Cli::get(const Knob& k) const { return find(k) != nullptr ? *find(k) : env(k); }

std::vector<const Knob*> bench_rows(std::initializer_list<const Knob*> extra) {
  std::vector<const Knob*> rows = {&kJobs, &kJson, &kCheck, &kSelfProfile, &kHeartbeat};
  rows.insert(rows.end(), extra);
  return rows;
}

Cli parse_or_exit(int argc, char** argv, std::vector<const Knob*> rows,
                  std::string operands, std::size_t max_operands) {
  Cli cli(std::move(rows), std::move(operands), max_operands);
  if (std::string error; !cli.parse(argc, argv, &error)) cli.fail(error);
  return cli;
}

Cli bench_cli(int argc, char** argv, std::initializer_list<const Knob*> extra) {
  return parse_or_exit(argc, argv, bench_rows(extra));
}

}  // namespace lazydram::knobs
