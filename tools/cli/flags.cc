#include "cli/flags.h"

#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace condensa::cli {
namespace {

// Seeds parse through ParseSize: digits only, so a sign or an overflow is
// an error rather than a wrapped value.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

constexpr std::size_t kWidth = 78;

std::string ShortDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

// Appends `text` word-wrapped to kWidth columns, with the cursor already
// at `column`; continuation lines start at `indent`.
void AppendWrapped(std::string* out, std::string_view text,
                   std::size_t indent, std::size_t column) {
  for (const std::string& word : Split(text, ' ')) {
    if (column > indent && column + 1 + word.size() > kWidth) {
      *out += '\n';
      out->append(indent, ' ');
      column = indent;
    } else if (column > indent) {
      *out += ' ';
      ++column;
    }
    *out += word;
    column += word.size();
  }
  *out += '\n';
}

}  // namespace

bool Flag::Set(std::string_view value) const {
  switch (kind_) {
    case Kind::kText:
      *static_cast<std::string*>(target_) = std::string(value);
      return true;
    case Kind::kBool:
      if (value != "true" && value != "false") return false;
      *static_cast<bool*>(target_) = value == "true";
      return true;
    case Kind::kSize: {
      std::size_t parsed = 0;
      if (!ParseSize(value, &parsed) || parsed < min_ || parsed > max_) {
        return false;
      }
      *static_cast<std::size_t*>(target_) = parsed;
      return true;
    }
    case Kind::kInt:
      return ParseInt(value, static_cast<int*>(target_));
    case Kind::kSeed: {
      std::size_t parsed = 0;
      if (!ParseSize(value, &parsed)) return false;
      *static_cast<std::uint64_t*>(target_) = parsed;
      return true;
    }
    case Kind::kDouble: {
      // NaN fails every comparison, so the bounds alone would let it in.
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed) || !std::isfinite(parsed) ||
          parsed < lower_ || (lower_open_ && parsed == lower_) ||
          parsed >= upper_) {
        return false;
      }
      *static_cast<double*>(target_) = parsed;
      return true;
    }
    case Kind::kEnum:
      for (std::size_t i = 0; i < choices_.size(); ++i) {
        if (value == choices_[i]) {
          choose_(i);
          return true;
        }
      }
      return false;
  }
  return false;
}

std::string Flag::Expect() const {
  // In Kind order.
  static const char* const kKindNames[] = {
      "text",       "true or false",              "an integer",
      "an integer", "an unsigned 64-bit integer", "a finite number",
      "one of "};
  std::string out = kKindNames[static_cast<int>(kind_)];
  if (kind_ == Kind::kEnum) out += metavar_;
  for (const std::string& bound : Bounds()) out += ", " + bound;
  return out;
}

std::vector<std::string> Flag::Bounds() const {
  std::vector<std::string> bounds;
  if (min_ > 0) bounds.push_back("min " + std::to_string(min_));
  if (max_ != std::numeric_limits<std::size_t>::max()) {
    bounds.push_back("max " + std::to_string(max_));
  }
  if (std::isfinite(lower_)) {
    bounds.push_back((lower_open_ ? "> " : ">= ") + ShortDouble(lower_));
  }
  if (std::isfinite(upper_)) bounds.push_back("< " + ShortDouble(upper_));
  return bounds;
}

std::string Flag::Spelling() const {
  return kind_ == Kind::kBool ? "--" + name_ : "--" + name_ + "=" + metavar_;
}

std::string Flag::Describe() const {
  std::vector<std::string> notes = Bounds();
  if (!default_text_.empty()) {
    notes.insert(notes.begin(), "default " + default_text_);
  }
  if (required_) notes.insert(notes.begin(), "required");
  if (notes.empty()) return help_;
  return help_ + " (" + Join(notes, "; ") + ")";
}

Flag& FlagSet::Double(const char* name, double* out, double fallback,
                      const char* help) {
  *out = fallback;
  return Add(Flag::Kind::kDouble, name, "X", out, ShortDouble(fallback),
             help);
}

bool FlagSet::Parse() {
  exit_code_ = 0;
  if (describe_only_) return false;
  // --help wins over everything else on the line, even a bad flag.
  for (const std::string& arg : args_) {
    if (arg == "--help" || arg == "--help=true" || arg == "--h" ||
        arg == "--h=true") {
      std::fputs(Help().c_str(), stdout);
      return false;
    }
  }
  bool ok = true;
  for (const std::string& arg : args_) {
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      ok = false;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);
    if (name == "help" || name == "h") continue;  // --help=false
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name_ == name) flag = &candidate;
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "error: unknown flag --%s for '%s'\n",
                   name.c_str(), command_.name);
      ok = false;
    } else if (eq == std::string::npos && flag->kind_ != Flag::Kind::kBool) {
      std::fprintf(stderr, "error: --%s needs a value: %s\n", name.c_str(),
                   flag->Expect().c_str());
      ok = false;
    } else if (const std::string value =
                   eq == std::string::npos ? "true" : arg.substr(eq + 1);
               !flag->Set(value)) {
      std::fprintf(stderr, "error: bad value '%s' for --%s: want %s\n",
                   value.c_str(), name.c_str(), flag->Expect().c_str());
      ok = false;
    }
  }
  for (const Flag& flag : flags_) {
    if (flag.required_ && static_cast<std::string*>(flag.target_)->empty()) {
      std::fprintf(stderr, "error: --%s is required\n", flag.name_.c_str());
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "run `condensa %s --help` for the flag list\n",
                 command_.name);
    exit_code_ = 2;
  }
  return ok;
}

std::string FlagSet::Help() const {
  std::string out = std::string("condensa ") + command_.name + " — " +
                    command_.summary + "\n\n";
  if (command_.details != nullptr) {
    AppendWrapped(&out, command_.details, 0, 0);
    out += '\n';
  }
  constexpr std::size_t kHelpColumn = 26;
  for (const Flag& flag : flags_) {
    const std::string spelling = "  " + flag.Spelling();
    out += spelling;
    if (spelling.size() + 1 > kHelpColumn) {
      out += '\n';
      out.append(kHelpColumn, ' ');
    } else {
      out.append(kHelpColumn - spelling.size(), ' ');
    }
    AppendWrapped(&out, flag.Describe(), kHelpColumn, kHelpColumn);
  }
  return out;
}

std::string FlagSet::Synopsis() const {
  constexpr std::size_t kIndent = 15;
  std::string out = "  " + std::string(command_.name);
  out.append(out.size() + 1 < kIndent ? kIndent - out.size() : 1, ' ');
  std::string line;
  for (const Flag& flag : flags_) {
    if (!line.empty()) line += ' ';
    const std::string spelling = flag.Spelling();
    line += flag.required_ ? spelling : "[" + spelling + "]";
  }
  AppendWrapped(&out, line, kIndent, out.size());
  return out;
}

}  // namespace condensa::cli
