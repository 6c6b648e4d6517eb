#include "obs/registry.hpp"

#include <stdexcept>

namespace gtw::obs {

Registry::Instrument& Registry::define(const std::string& name, Kind kind) {
  if (name.empty()) throw std::logic_error("obs: empty instrument name");
  auto [it, inserted] = instruments_.try_emplace(name);
  if (!inserted)
    throw std::logic_error("obs: instrument name collision on '" + name +
                           "'");
  it->second.kind = kind;
  return it->second;
}

void Registry::probe_counter(const std::string& name,
                             std::function<std::uint64_t()> fn) {
  define(name, Kind::kCounter).counter_fn = std::move(fn);
}

void Registry::probe_gauge(const std::string& name,
                           std::function<double()> fn) {
  define(name, Kind::kGauge).gauge_fn = std::move(fn);
}

void Registry::mark(const std::string& name, des::SimTime t, bool begin) {
  marks_.push_back(Mark{t, name, begin});
}

bool Registry::contains(const std::string& name) const {
  return instruments_.find(name) != instruments_.end();
}

double Registry::read(const std::string& name) const {
  const auto it = instruments_.find(name);
  if (it == instruments_.end())
    throw std::out_of_range("obs: unknown instrument '" + name + "'");
  const Instrument& ins = it->second;
  return ins.kind == Kind::kCounter
             ? static_cast<double>(ins.counter_fn())
             : ins.gauge_fn();
}

std::vector<Registry::Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(instruments_.size());
  for (const auto& [name, ins] : instruments_) {
    Sample s;
    s.name = name;
    s.kind = ins.kind;
    if (ins.kind == Kind::kCounter)
      s.u = ins.counter_fn();
    else
      s.d = ins.gauge_fn();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace gtw::obs
