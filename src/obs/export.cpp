#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace tdp::obs {
namespace {

template <typename Row>
std::vector<const Row*> sorted_rows(const std::vector<Row>& rows) {
  std::vector<const Row*> sorted;
  sorted.reserve(rows.size());
  for (const Row& row : rows) sorted.push_back(&row);
  std::sort(sorted.begin(), sorted.end(),
            [](const Row* a, const Row* b) { return a->name < b->name; });
  return sorted;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// taxonomy maps dots (and anything else) to underscores.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::string metrics_json(const Snapshot& snapshot) {
  std::string out = "{\"counters\":{";
  const auto append_values = [&out](const auto& rows) {
    bool first = true;
    for (const auto* row : sorted_rows(rows)) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += row->name;
      out += "\":";
      append_number(out, row->value);
    }
  };
  append_values(snapshot.counters);
  out += "},\"gauges\":{";
  append_values(snapshot.gauges);
  out += "},\"histograms\":{";
  bool first = true;
  for (const auto* row : sorted_rows(snapshot.histograms)) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += row->name;
    out += "\":{\"count\":";
    append_number(out, row->count);
    out += ",\"sum\":";
    append_number(out, row->sum);
    out += ",\"sum_fp\":";
    append_number(out, row->sum_fp);
    out += ",\"scale\":";
    append_number(out, row->scale);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < row->buckets.size(); ++b) {
      if (b) out += ',';
      out += "{\"le\":";
      if (b < row->bounds.size()) {
        append_number(out, row->bounds[b]);
      } else {
        out += "\"+Inf\"";
      }
      out += ",\"count\":";
      append_number(out, row->buckets[b]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string metrics_json() { return metrics_json(Registry::global().snapshot()); }

std::string prometheus_text(const Snapshot& snapshot) {
  std::string out;
  const auto append_values = [&out](const auto& rows, const char* type) {
    for (const auto* row : sorted_rows(rows)) {
      const std::string name = prometheus_name(row->name);
      // HELP text is the registry's dotted taxonomy name: deterministic
      // (the exposition bytes are fixture-tested) and it round-trips the
      // original name through the [a-zA-Z0-9_:] sanitization.
      out += "# HELP " + name + " TDP " + type + ' ' + row->name + '\n';
      out += "# TYPE " + name + ' ' + type + '\n' + name + ' ';
      append_number(out, row->value);
      out += '\n';
    }
  };
  append_values(snapshot.counters, "counter");
  append_values(snapshot.gauges, "gauge");
  for (const auto* row : sorted_rows(snapshot.histograms)) {
    const std::string name = prometheus_name(row->name);
    out += "# HELP " + name + " TDP histogram " + row->name + '\n';
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < row->buckets.size(); ++b) {
      cumulative += row->buckets[b];
      out += name + "_bucket{le=\"";
      if (b < row->bounds.size()) {
        append_number(out, row->bounds[b]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      append_number(out, cumulative);
      out += '\n';
    }
    out += name + "_sum ";
    append_number(out, row->sum);
    out += '\n';
    out += name + "_count ";
    append_number(out, row->count);
    out += '\n';
  }
  return out;
}

std::string prometheus_text() {
  return prometheus_text(Registry::global().snapshot());
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  const bool complete = written == content.size();
  const bool closed = std::fclose(file) == 0;
  return complete && closed;
}

}  // namespace tdp::obs
