#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <numeric>
#include <string>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> WindowPercentiles(
    const std::vector<std::pair<double, double>>& samples, double window_s,
    double q, std::size_t min_samples) {
  std::map<long, std::vector<double>> windows;
  for (const auto& [t, value] : samples) {
    windows[static_cast<long>(t / window_s)].push_back(value);
  }
  std::vector<double> out;
  for (auto& [index, values] : windows) {
    if (values.size() >= min_samples) {
      out.push_back(Percentile(std::move(values), q));
    }
  }
  return out;
}

namespace {

// Sum of the kB values of the `keys` lines in a /proc status-style file;
// -1 when the file cannot be read.
double ProcKb(const std::string& path, std::initializer_list<const char*> keys) {
  std::ifstream in(path);
  if (!in) return -1.0;
  double total = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    for (const char* key : keys) {
      const std::string prefix = std::string(key) + ":";
      if (line.compare(0, prefix.size(), prefix) == 0) {
        total += std::strtod(line.c_str() + prefix.size(), nullptr);
      }
    }
  }
  return total;
}

}  // namespace

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  const double hwm_kb = ProcKb("/proc/self/status", {"VmHWM"});
  if (hwm_kb > 0.0) return hwm_kb / 1024.0;
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // KiB on Linux
}

double PrivateRssMb(pid_t pid) {
  const double kb =
      ProcKb("/proc/" + std::to_string(pid) + "/smaps_rollup",
             {"Private_Clean", "Private_Dirty"});
  return kb > 0.0 ? kb / 1024.0 : 0.0;
}

}  // namespace perfbench
