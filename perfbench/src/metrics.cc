#include "metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * double(v.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(rank));
  const std::size_t above = std::min(below + 1, v.size() - 1);
  const double frac = rank - double(below);
  return v[below] + (v[above] - v[below]) * frac;
}

Grade grade(const std::vector<hetis::engine::RequestRecord>& records, std::size_t sent,
            const hetis::engine::SloSpec& slo) {
  Grade g;
  g.sent = sent;
  for (const auto& rec : records) {
    if (!rec.finished()) {
      ++g.unfinished;
      continue;
    }
    ++g.finished;
    if (hetis::engine::meets_slo(rec, slo)) ++g.attained;
  }
  if (sent > records.size()) g.unfinished += sent - records.size();
  return g;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

std::string run_digest(const std::vector<hetis::engine::RequestRecord>& records,
                       std::size_t events) {
  Digest d;
  for (const auto& rec : records) {
    d.add(rec.id);
    d.add(rec.arrival);
    d.add(rec.first_token);
    d.add(rec.finish);
    d.add(rec.prompt_len);
    d.add(rec.output_len);
    d.add(rec.preemptions);
  }
  d.add(records.size());
  d.add(events);
  return d.hex();
}

std::string check_record_order(const std::vector<hetis::engine::RequestRecord>& records) {
  for (const auto& rec : records) {
    const bool prefilled = rec.first_token >= 0;
    const bool bad = (prefilled && rec.first_token < rec.arrival) ||
                     (rec.finished() && (!prefilled || rec.finish < rec.first_token));
    if (bad) {
      return "request " + std::to_string(rec.id) + " breaks arrival <= first token <= finish";
    }
  }
  return "";
}

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(s);
  while (std::getline(in, part, sep)) parts.push_back(part);
  if (!s.empty() && s.back() == sep) parts.emplace_back();
  return parts;
}

long long to_int(const std::string& s, const std::string& text) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (s.empty() || used != s.size()) {
    throw std::invalid_argument("malformed plan text '" + text + "'");
  }
  return v;
}

}  // namespace

std::string plan_to_text(const hetis::parallel::ParallelPlan& plan) {
  std::ostringstream out;
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& inst = plan.instances[i];
    out << (i ? ";" : "");
    for (std::size_t j = 0; j < inst.stages.size(); ++j) {
      const auto& st = inst.stages[j];
      out << (j ? "/" : "");
      for (std::size_t k = 0; k < st.devices.size(); ++k) out << (k ? "." : "") << st.devices[k];
      out << ':' << st.layers << ':' << st.extra_reserved;
    }
    out << '@';
    for (std::size_t k = 0; k < inst.attention_workers.size(); ++k) {
      out << (k ? "," : "") << inst.attention_workers[k];
    }
  }
  return out.str();
}

hetis::parallel::ParallelPlan plan_from_text(const std::string& text) {
  hetis::parallel::ParallelPlan plan;
  if (text.empty()) throw std::invalid_argument("empty plan text");
  for (const auto& inst_text : split(text, ';')) {
    const auto at = split(inst_text, '@');
    if (at.size() != 2 || at[0].empty()) {
      throw std::invalid_argument("malformed plan text '" + text + "'");
    }
    hetis::parallel::InstanceConfig inst;
    for (const auto& stage_text : split(at[0], '/')) {
      const auto fields = split(stage_text, ':');
      if (fields.size() != 3 || fields[0].empty()) {
        throw std::invalid_argument("malformed plan text '" + text + "'");
      }
      hetis::parallel::StageConfig st;
      for (const auto& d : split(fields[0], '.')) st.devices.push_back(int(to_int(d, text)));
      st.layers = int(to_int(fields[1], text));
      st.extra_reserved = to_int(fields[2], text);
      inst.stages.push_back(st);
    }
    if (!at[1].empty()) {
      for (const auto& d : split(at[1], ',')) {
        inst.attention_workers.push_back(int(to_int(d, text)));
      }
    }
    plan.instances.push_back(inst);
  }
  return plan;
}

}  // namespace perfbench
