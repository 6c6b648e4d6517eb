// Exporters: every metric leaves the simulator through one of these (or
// through SpanTracer::write_json for causal spans), never through ad-hoc
// printf (enforced by the gtw-lint rule raw-metric-print): stable-ordered
// JSON snapshots of a Registry and the time series a TimeSeriesSampler
// collected.  All timestamps are simulated time in integer picoseconds, so
// exports are byte-identical run to run.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/registry.hpp"
#include "obs/sampler.hpp"

namespace gtw::obs {

// {"label": ..., "metrics": {name: value, ...}, "marks": [...]} — probes in
// lexicographic name order.
void write_metrics_json(std::ostream& os, const Registry& reg,
                        const std::string& label = "");

// {"series": [{"name": ..., "points": [[t_ps, value], ...]}, ...]} in watch
// order.
void write_series_json(std::ostream& os, const TimeSeriesSampler& sampler);

}  // namespace gtw::obs
