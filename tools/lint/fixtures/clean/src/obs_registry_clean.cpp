// Fixture: obs-name-registry must stay silent on consistent re-registration
// (same leaf, same kind, under different prefixes), prefixed dynamic names,
// and distinct metrics.  Not compiled — lint fixture only.

#include <string>

#include "obs/registry.hpp"

namespace gtw {

void install(obs::Registry& reg, const std::string& prefix) {
  reg.probe_counter("wan.bytes_total", [] { return 0u; });
  reg.probe_counter(prefix + "wan.bytes_total",
                    [] { return 0u; });  // same leaf + same kind: fine
  reg.probe_gauge(prefix + "window_bytes",
                  [] { return 0.0; });  // prefix + leaf literal: fine
  reg.probe_counter("wan.rtt_samples", [] { return 0u; });
  reg.probe_gauge("wan.queue_depth", [] { return 0.0; });
}

}  // namespace gtw
