// The benchmark binary's output: named metrics with units, plus free-form
// details, printed as one JSON object.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void detail(const std::string& name, double value) {
    details_.emplace_back(name, number(value));
  }
  void detail(const std::string& name, const std::string& value) {
    details_.emplace_back(name, quote(value));
  }

  /// {"correct":..,"attempted":..,"failed":..,"violation":..,
  ///  "metrics":{name:{"value":..,"unit":..}},"details":{..}}
  std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                   const std::string& violation) const;

  static std::string number(double v);
  static std::string quote(const std::string& s);

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;  ///< value as JSON
};

}  // namespace perfbench
