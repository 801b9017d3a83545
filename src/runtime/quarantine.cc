#include "runtime/quarantine.h"

#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace condensa::runtime {
namespace {

constexpr char kMagic[] = "# condensa-quarantine v1";

std::string Sanitize(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return out;
}

bool ParseReason(const std::string& name, QuarantineReason* reason) {
  for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
    QuarantineReason candidate = static_cast<QuarantineReason>(i);
    if (name == QuarantineReasonName(candidate)) {
      *reason = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kDimensionMismatch:
      return "dimension-mismatch";
    case QuarantineReason::kNonFinite:
      return "non-finite";
    case QuarantineReason::kRepeatedFailure:
      return "repeated-failure";
  }
  return "unknown";
}

StatusOr<QuarantineWriter> QuarantineWriter::Open(const std::string& path,
                                                  std::size_t dim) {
  const bool fresh = !PathExists(path);
  CONDENSA_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Open(path));
  QuarantineWriter writer(std::move(file), path);
  if (fresh) {
    std::string header = kMagic;
    header += " dim ";
    header += std::to_string(dim);
    header += '\n';
    CONDENSA_RETURN_IF_ERROR(writer.file_.Append(header));
    CONDENSA_RETURN_IF_ERROR(writer.file_.Sync());
  }
  return writer;
}

Status QuarantineWriter::Write(const linalg::Vector& record,
                               QuarantineReason reason,
                               const std::string& detail) {
  std::string line = QuarantineReasonName(reason);
  line += '\t';
  line += Sanitize(detail);
  line += '\t';
  for (std::size_t j = 0; j < record.dim(); ++j) {
    if (j > 0) line += ',';
    AppendExactDouble(line, record[j]);
  }
  line += '\n';
  std::lock_guard<std::mutex> lock(*mu_);
  CONDENSA_RETURN_IF_ERROR(file_.Append(line));
  CONDENSA_RETURN_IF_ERROR(file_.Sync());
  ++counts_[static_cast<std::size_t>(reason)];
  return OkStatus();
}

std::size_t QuarantineWriter::count() const {
  std::lock_guard<std::mutex> lock(*mu_);
  std::size_t total = 0;
  for (std::size_t c : counts_) total += c;
  return total;
}

std::size_t QuarantineWriter::count(QuarantineReason reason) const {
  std::lock_guard<std::mutex> lock(*mu_);
  return counts_[static_cast<std::size_t>(reason)];
}

StatusOr<std::vector<QuarantineWriter::Entry>> QuarantineWriter::ReadAll(
    const std::string& path) {
  CONDENSA_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  std::istringstream stream(content);
  std::string line;
  if (!std::getline(stream, line) || !StartsWith(line, kMagic)) {
    return DataLossError(path + " is not a condensa-quarantine v1 file");
  }
  std::vector<Entry> entries;
  std::size_t line_number = 1;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::size_t tab1 = line.find('\t');
    const std::size_t tab2 =
        tab1 == std::string::npos ? std::string::npos
                                  : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) {
      return DataLossError(path + ": malformed entry at line " +
                           std::to_string(line_number));
    }
    Entry entry;
    if (!ParseReason(line.substr(0, tab1), &entry.reason)) {
      return DataLossError(path + ": unknown reason at line " +
                           std::to_string(line_number));
    }
    entry.detail = line.substr(tab1 + 1, tab2 - tab1 - 1);
    std::string values = line.substr(tab2 + 1);
    std::istringstream value_stream(values);
    std::string token;
    while (std::getline(value_stream, token, ',')) {
      double value = 0.0;
      if (!ParseDouble(token, &value)) {
        return DataLossError(path + ": bad value at line " +
                             std::to_string(line_number));
      }
      entry.values.push_back(value);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace condensa::runtime
