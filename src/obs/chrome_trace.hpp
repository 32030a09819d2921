// Chrome trace-event JSON export of the flight recorder's ring: load the
// result in Perfetto (https://ui.perfetto.dev) or chrome://tracing to see
// one track per switch processing unit, one per device CPU control plane,
// one per notification channel, and one for the snapshot observer —
// marker propagation, notification service, and report collection laid
// out on a shared time axis.
//
// Emitted schema (the "JSON Object Format" of the trace-event spec):
//   {
//     "displayTimeUnit": "ns",
//     "otherData": {"tool": "speedlight", "schema": "chrome-trace-v1"},
//     "traceEvents": [
//       {"name": ..., "cat": ..., "ph": "X"|"i", "ts": <us>, ["dur": <us>,]
//        "pid": ..., "tid": ..., "args": {"a0": ..., "a1": ...}},
//       {"ph": "M", "name": "process_name"|"thread_name", ...}, ...
//     ]
//   }
// Timestamps are microseconds (the unit the format mandates), with
// nanosecond precision preserved as fractional digits.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace speedlight::obs {

/// Serialize the tracer's ring (plus its track/process name metadata) as
/// Chrome trace-event JSON.
void write_chrome_trace(std::ostream& os, const Tracer& tracer);

/// Merge several tracers' rings into one trace on a single time axis.
/// Records are merged deterministically by (timestamp, tracer index, ring
/// position), so the same recorded history always serializes to the same
/// bytes; duplicate name metadata across tracers is harmless.
void write_chrome_trace(std::ostream& os,
                        const std::vector<const Tracer*>& tracers);

/// Convenience: write to `path`; returns false if the file cannot be
/// opened.
bool export_chrome_trace(const std::string& path, const Tracer& tracer);
bool export_chrome_trace(const std::string& path,
                         const std::vector<const Tracer*>& tracers);

}  // namespace speedlight::obs
