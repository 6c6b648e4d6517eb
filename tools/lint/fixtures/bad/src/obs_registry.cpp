// Fixture: rule obs-name-registry — one semantic metric name must map to
// one instrument kind, and names must not differ only by case (exporters
// sort lexicographically, so case twins reorder silently).  Not compiled.

#include "obs/registry.hpp"

namespace gtw {

void install(obs::Registry& reg) {
  reg.probe_counter("wan.bytes_total", [] { return 0u; });  // finding: kind collision (counter here)
  reg.probe_gauge("wan.bytes_total", [] { return 0.0; });   // finding: kind collision (gauge here)
  reg.probe_counter("wan.Retries", [] { return 0u; });      // finding: case twin
  reg.probe_counter("wan.retries", [] { return 0u; });      // finding: case twin
}

}  // namespace gtw
