#include "telemetry/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace composim::telemetry {

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

void Table::addRow(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::addRow: wrong number of cells");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto renderRow = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += ' ';
      line += cells[c];
      line.append(width[c] - cells[c].size(), ' ');
      line += " |";
    }
    return line + "\n";
  };
  std::string sep = "+";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    sep.append(width[c] + 2, '-');
    sep += '+';
  }
  sep += '\n';

  std::string out = sep + renderRow(headers_) + sep;
  for (const auto& row : rows_) out += renderRow(row);
  out += sep;
  return out;
}

std::string barChart(const std::vector<std::pair<std::string, double>>& entries,
                     const std::string& unit, int maxWidth) {
  if (entries.empty()) return "(no data)\n";
  std::size_t labelWidth = 0;
  double maxValue = 0.0;
  for (const auto& [label, value] : entries) {
    labelWidth = std::max(labelWidth, label.size());
    maxValue = std::max(maxValue, std::fabs(value));
  }
  if (maxValue <= 0.0) maxValue = 1.0;
  std::string out;
  for (const auto& [label, value] : entries) {
    out += "  " + label;
    out.append(labelWidth - label.size(), ' ');
    out += " |";
    const int bars = static_cast<int>(std::lround(
        std::fabs(value) / maxValue * static_cast<double>(maxWidth)));
    out.append(static_cast<std::size_t>(bars), value < 0.0 ? '<' : '#');
    out += ' ';
    out += fmt(value);
    if (!unit.empty()) {
      out += ' ';
      out += unit;
    }
    out += '\n';
  }
  return out;
}

std::string stripChart(const TimeSeries& series, int width, int height,
                       double ymin, double ymax) {
  const auto samples = series.resample(static_cast<std::size_t>(width));
  if (samples.empty()) return "(no samples)\n";
  const double span = std::max(1e-9, ymax - ymin);
  std::string out;
  for (int row = height - 1; row >= 0; --row) {
    const double levelLo = ymin + span * row / height;
    char label[16];
    std::snprintf(label, sizeof(label), "%6.1f |", levelLo);
    out += label;
    for (double v : samples) {
      out += (v >= levelLo) ? '#' : ' ';
    }
    out += '\n';
  }
  out += "       +";
  out.append(samples.size(), '-');
  out += "> time\n";
  return out;
}

std::string toCsv(const std::vector<const TimeSeries*>& series) {
  std::string out = "time";
  for (const auto* s : series) out += "," + s->name();
  out += '\n';
  std::size_t rows = 0;
  for (const auto* s : series) rows = std::max(rows, s->size());
  for (std::size_t i = 0; i < rows; ++i) {
    bool haveTime = false;
    std::string line;
    for (const auto* s : series) {
      if (!haveTime && i < s->size()) {
        line = fmt(s->timeAt(i), 6);
        haveTime = true;
      }
    }
    for (const auto* s : series) {
      line += ',';
      if (i < s->size()) line += fmt(s->valueAt(i), 6);
    }
    out += line + '\n';
  }
  return out;
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("writeFile: cannot open " + path);
  f << content;
  if (!f) throw std::runtime_error("writeFile: write failed for " + path);
}

}  // namespace composim::telemetry
