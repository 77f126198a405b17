// Trace export: renders the TraceLog's flat span list as Chrome
// trace-event JSON (load in chrome://tracing or Perfetto): one "X" complete
// event per span, processes mapped from span layers so a cross-stack
// request visually hops client → net → container → ...
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/trace.hpp"

namespace gs::telemetry {

/// `raw` escaped for use inside a JSON string literal: quotes,
/// backslashes and every control character.
std::string json_escape(std::string_view raw);

/// Renders spans as Chrome trace-event JSON. Span layers become process
/// ids ("client", "net", "container", ... each its own track), traces
/// become thread ids within them; span/parent identity rides in `args`.
std::string export_chrome_trace(const std::vector<SpanRecord>& spans);

}  // namespace gs::telemetry
