#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

namespace {

std::string_view NameOf(std::string_view key) {
  return key.substr(0, key.find('{'));
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Registry SnapshotRegistry() {
  Registry out;
  std::istringstream text(condensa::obs::DefaultRegistry().DumpPrometheusText());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    if (EndsWith(NameOf(key), "_bucket")) continue;
    out[key] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

Registry Delta(const Registry& before, const Registry& after) {
  Registry out;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    const double diff = value - (it == before.end() ? 0.0 : it->second);
    if (diff != 0.0) out[key] = diff;
  }
  return out;
}

void Accumulate(Registry& into, const Registry& delta) {
  for (const auto& [key, value] : delta) into[key] += value;
}

double Sum(const Registry& registry, std::string_view name,
           std::string_view label) {
  double total = 0.0;
  for (const auto& [key, value] : registry) {
    if (NameOf(key) == name && key.find(label) != std::string::npos) {
      total += value;
    }
  }
  return total;
}

std::string RegistryJson(const Registry& registry) {
  std::string out = "{";
  bool first = true;
  char buffer[64];
  for (const auto& [key, value] : registry) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += first ? "\n  " : ",\n  ";
    out += '"' + JsonEscape(key) + "\": " + buffer;
    first = false;
  }
  out += "\n}\n";
  return out;
}

void StageLedger::Add(const std::string& stage, double seconds,
                      std::size_t calls, const std::string& parent) {
  Entry& entry = stages_[stage];
  entry.seconds += seconds;
  entry.calls += calls;
  entry.parent = parent;
}

double StageLedger::Covered() const {
  double total = 0.0;
  for (const auto& [name, entry] : stages_) {
    if (entry.parent.empty()) total += entry.seconds;
  }
  return total;
}

double StageLedger::Coverage() const {
  return timed_wall_s_ > 0.0 ? Covered() / timed_wall_s_ : 0.0;
}

std::string StageLedger::Report(const std::string& workload,
                                double floor) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "stage ledger [%s]: timed wall %.4f s, covered %.1f%%\n",
                workload.c_str(), timed_wall_s_, 100.0 * Coverage());
  out += line;
  std::vector<std::pair<std::string, Entry>> rows(stages_.begin(),
                                                  stages_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.seconds > b.second.seconds;
  });
  for (const auto& [name, entry] : rows) {
    if (!entry.parent.empty()) continue;
    std::snprintf(line, sizeof(line), "  %-44s %10.4f s %6.1f%% %10zu calls\n",
                  name.c_str(), entry.seconds,
                  timed_wall_s_ > 0.0 ? 100.0 * entry.seconds / timed_wall_s_
                                      : 0.0,
                  entry.calls);
    out += line;
    for (const auto& [child, sub] : rows) {
      if (sub.parent != name) continue;
      std::snprintf(line, sizeof(line),
                    "    of which %-35s %10.4f s %6.1f%% of parent %8zu calls\n",
                    child.c_str(), sub.seconds,
                    entry.seconds > 0.0 ? 100.0 * sub.seconds / entry.seconds
                                        : 0.0,
                    sub.calls);
      out += line;
    }
  }
  const double gap = timed_wall_s_ - Covered();
  std::snprintf(line, sizeof(line), "  %-44s %10.4f s %6.1f%%\n",
                "unattributed", gap,
                timed_wall_s_ > 0.0 ? 100.0 * gap / timed_wall_s_ : 0.0);
  out += line;
  if (Coverage() < floor) {
    std::snprintf(line, sizeof(line),
                  "LEDGER GAP [%s]: %.4f s (%.1f%%) of the timed wall time is "
                  "in no measured stage (row 'unattributed'); coverage "
                  "%.1f%% < %.0f%%\n",
                  workload.c_str(), gap, 100.0 * gap / timed_wall_s_,
                  100.0 * Coverage(), 100.0 * floor);
    out += line;
  }
  return out;
}

std::uint64_t Trace::NextId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Trace::Record(std::string_view name, int tid,
                            Clock::time_point start, Clock::time_point end,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::uint64_t id = NextId();
  RecordWithId(id, name, tid, start, end, parent);
  return id;
}

void Trace::RecordWithId(std::uint64_t id, std::string_view name, int tid,
                         Clock::time_point start, Clock::time_point end,
                         std::uint64_t parent) {
  if (!enabled_) return;
  const double ts = SecondsBetween(origin_, start) * 1e6;
  const double dur = SecondsBetween(start, end) * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({id, parent, std::string(name), tid, ts, dur});
}

std::string Trace::ChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[512];
  bool first = true;
  for (const Event& e : events_) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}",
                  first ? "" : ",", JsonEscape(e.name).c_str(), e.tid, e.ts_us,
                  e.dur_us, static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent));
    out += buffer;
    first = false;
  }
  std::snprintf(buffer, sizeof(buffer),
                "\n],\"otherData\":{\"dropped_events\":%zu}}\n", dropped_);
  out += buffer;
  return out;
}

}  // namespace perfbench
