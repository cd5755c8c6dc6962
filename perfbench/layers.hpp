// Per-layer figures derived from the spans the library already records
// (obs::Tracer). Everything here is read from outside: the benchmark arms
// the tracer around its own calls and folds the captured events afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "storage/layout.hpp"

namespace perfbench {

struct SpanTotals {
  std::size_t roots = 0;
  double root_s = 0;  ///< wall covered by the root spans (one per job)
  /// Root-lane wall inside a root span that no other span covers.
  double root_unspanned_s = 0;
  /// Root-lane self time of engine.interval / cop_column / rop_row: the
  /// apply loops plus whatever waits inside them carry no span of their own.
  double apply_s = 0;
  double prefetch_s = 0;    ///< engine.cop_prefetch, every lane
  double value_swap_s = 0;  ///< values.swap_in + swap_out, every lane
  /// Computed from span counts x sizes in the store directory, not measured:
  /// CSR index bytes requested through the cache layer, and vertex-value
  /// bytes each swap span moves.
  std::uint64_t index_bytes = 0;
  std::uint64_t value_read_bytes = 0;
  std::uint64_t value_write_bytes = 0;

  SpanTotals& operator+=(const SpanTotals& o);
};

/// Folds the events of one tracer recording (Tracer::start to stop). Root
/// spans are `root_cat`/`root_name` (one per job); `value_bytes` is sizeof
/// the program's vertex value.
SpanTotals analyze_spans(const std::vector<husg::obs::TraceEvent>& events,
                         const husg::StoreMeta& meta, const char* root_cat,
                         const char* root_name, std::uint32_t value_bytes);

}  // namespace perfbench
