#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string Report::number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Report::quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Report::json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                         const std::string& violation) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"violation\": " + quote(violation);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", " : "") + quote(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quote(m.unit) + "}";
  }
  out += "}, \"details\": {";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    out += (i ? ", " : "") + quote(details_[i].first) + ": " + details_[i].second;
  }
  return out + "}}";
}

}  // namespace perfbench
