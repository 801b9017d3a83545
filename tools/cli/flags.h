// The condensa CLI's flag table.
//
// A command states each flag it takes once, on a FlagSet: the flag's
// name, kind, default, bound and help line, bound to the variable the
// command then reads. From that one declaration the FlagSet
//   * parses `--name=value` (bool flags also take the bare `--name`),
//   * rejects unknown flags and bad values with exit 2 before the command
//     does any work,
//   * prints `condensa <command> --help`, and
//   * renders the command's entry in the top-level usage synopsis.
//
// The kinds are text (a path, address or id), bool, size (unsigned, with
// a minimum and an optional maximum), int (signed), seed (any u64),
// finite double (with an optional range) and enum (one of a fixed list of
// choices, bound to an enum value).
//
// A command is a function that declares its flags, then calls Parse()
// before it does anything else:
//
//   int Run(FlagSet& flags) {
//     std::size_t k{};
//     flags.Size("k", &k, 10, "indistinguishability level").Min(1);
//     if (!flags.Parse()) return flags.exit_code();
//     ...
//   }
//
// The usage synopsis comes from the same function: run on a FlagSet that
// only describes, Parse() returns false with exit code 0 once the
// declarations are recorded.

#ifndef CONDENSA_TOOLS_CLI_FLAGS_H_
#define CONDENSA_TOOLS_CLI_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace condensa::cli {

class FlagSet;

// One subcommand of the condensa binary.
struct Command {
  const char* name;
  const char* summary;  // one line, shown in --help's title
  const char* details;  // paragraph shown by --help; may be nullptr
  int (*run)(FlagSet& flags);
};

// One declared flag. The bounds chain onto its declaration.
class Flag {
 public:
  // Text flags: the value must be non-empty.
  Flag& Required() {
    required_ = true;
    return *this;
  }
  // Size flags: the value must lie in [min, max].
  Flag& Min(std::size_t min) {
    min_ = min;
    return *this;
  }
  Flag& Max(std::size_t max) {
    max_ = max;
    return *this;
  }
  // Double flags: the value must be > bound, >= bound, or < bound.
  Flag& Above(double bound) {
    lower_ = bound;
    lower_open_ = true;
    return *this;
  }
  Flag& AtLeast(double bound) {
    lower_ = bound;
    return *this;
  }
  Flag& Below(double bound) {
    upper_ = bound;
    return *this;
  }

 private:
  friend class FlagSet;
  enum class Kind { kText, kBool, kSize, kInt, kSeed, kDouble, kEnum };

  Flag(Kind kind, const char* name, std::string metavar, void* target,
       std::string default_text, const char* help)
      : kind_(kind),
        name_(name),
        metavar_(std::move(metavar)),
        target_(target),
        default_text_(std::move(default_text)),
        help_(help) {}

  // Stores `value` into the bound variable; false when it is not of the
  // flag's kind or out of its bounds.
  bool Set(std::string_view value) const;
  // What Set accepts, for error messages: "an integer, min 1".
  std::string Expect() const;
  // "min 1", "max 65535", "> 0", "< 1".
  std::vector<std::string> Bounds() const;
  // "--name=METAVAR", or "--name" for a bool.
  std::string Spelling() const;
  // The help line plus its required / default / bound notes.
  std::string Describe() const;

  Kind kind_;
  std::string name_;
  std::string metavar_;
  void* target_;
  std::string default_text_;  // empty: no default worth printing
  std::string help_;
  bool required_ = false;
  std::size_t min_ = 0;
  std::size_t max_ = std::numeric_limits<std::size_t>::max();
  double lower_ = -std::numeric_limits<double>::infinity();
  bool lower_open_ = false;
  double upper_ = std::numeric_limits<double>::infinity();  // exclusive
  std::vector<std::string> choices_;
  std::function<void(std::size_t)> choose_;  // enum: picks choices_[i]
};

class FlagSet {
 public:
  // Parses `args` (argv after the command name) for `command`.
  FlagSet(const Command& command, std::vector<std::string> args)
      : command_(command), args_(std::move(args)), describe_only_(false) {}
  // Records the declarations only: Parse() returns false with exit 0.
  explicit FlagSet(const Command& command)
      : command_(command), describe_only_(true) {}

  FlagSet(const FlagSet&) = delete;
  FlagSet& operator=(const FlagSet&) = delete;

  // Declarations. Each stores `fallback` into `*out` now; Parse() then
  // overwrites it with the given value.
  Flag& Text(const char* name, const char* metavar, std::string* out,
             std::string fallback, const char* help) {
    *out = fallback;
    return Add(Flag::Kind::kText, name, metavar, out, fallback, help);
  }
  Flag& Bool(const char* name, bool* out, const char* help) {
    *out = false;
    return Add(Flag::Kind::kBool, name, "", out, "", help);
  }
  Flag& Size(const char* name, std::size_t* out, std::size_t fallback,
             const char* help) {
    *out = fallback;
    return Add(Flag::Kind::kSize, name, "N", out, std::to_string(fallback),
               help);
  }
  Flag& Int(const char* name, int* out, int fallback, const char* help) {
    *out = fallback;
    return Add(Flag::Kind::kInt, name, "N", out, std::to_string(fallback),
               help);
  }
  Flag& Seed(const char* name, std::uint64_t* out, std::uint64_t fallback,
             const char* help) {
    *out = fallback;
    return Add(Flag::Kind::kSeed, name, "N", out, std::to_string(fallback),
               help);
  }
  Flag& Double(const char* name, double* out, double fallback,
               const char* help);
  template <typename T>
  Flag& Enum(const char* name, T* out, T fallback,
             const std::vector<std::pair<const char*, T>>& choices,
             const char* help) {
    *out = fallback;
    Flag& flag = Add(Flag::Kind::kEnum, name, "", out, "", help);
    std::vector<T> values;
    for (const auto& [label, value] : choices) {
      if (!flag.metavar_.empty()) flag.metavar_ += '|';
      flag.metavar_ += label;
      flag.choices_.push_back(label);
      if (value == fallback) flag.default_text_ = label;
      values.push_back(value);
    }
    flag.choose_ = [out, values](std::size_t i) { *out = values[i]; };
    return flag;
  }

  // Applies the arguments to the declared flags. Returns true when the
  // command should run. Returns false after printing --help (exit 0),
  // after a usage error (exit 2), or when only describing (exit 0).
  bool Parse();
  int exit_code() const { return exit_code_; }

  // `condensa <command> --help`.
  std::string Help() const;
  // The command's entry in the top-level usage synopsis.
  std::string Synopsis() const;

 private:
  Flag& Add(Flag::Kind kind, const char* name, std::string metavar,
            void* target, std::string default_text, const char* help) {
    return flags_.emplace_back(Flag(kind, name, std::move(metavar), target,
                                    std::move(default_text), help));
  }

  const Command& command_;
  std::vector<std::string> args_;
  bool describe_only_;
  std::deque<Flag> flags_;  // a deque keeps each returned Flag& valid
  int exit_code_ = 0;
};

}  // namespace condensa::cli

#endif  // CONDENSA_TOOLS_CLI_FLAGS_H_
