#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

namespace perfbench {

namespace {

using husg::obs::TraceEvent;
using Interval = std::pair<std::uint64_t, std::uint64_t>;  // [start, end) ns

bool is(const TraceEvent& e, const char* cat, const char* name) {
  return std::strcmp(e.cat, cat) == 0 && std::strcmp(e.name, name) == 0;
}

bool is_apply_span(const TraceEvent& e) {
  return is(e, "engine", "interval") || is(e, "engine", "cop_column") ||
         is(e, "engine", "rop_row");
}

/// Spans that only group other work; everything else is a leaf whose time
/// the apply figure must not include.
bool is_grouping_span(const TraceEvent& e) {
  return is_apply_span(e) || is(e, "engine", "iteration");
}

std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::uint64_t measure(const std::vector<Interval>& m) {
  std::uint64_t total = 0;
  for (const Interval& iv : m) total += iv.second - iv.first;
  return total;
}

/// Overlap of two merged interval lists.
std::uint64_t overlap(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  std::uint64_t total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t lo = std::max(a[i].first, b[j].first);
    const std::uint64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

SpanTotals& SpanTotals::operator+=(const SpanTotals& o) {
  roots += o.roots;
  root_s += o.root_s;
  root_unspanned_s += o.root_unspanned_s;
  apply_s += o.apply_s;
  prefetch_s += o.prefetch_s;
  value_swap_s += o.value_swap_s;
  index_bytes += o.index_bytes;
  value_read_bytes += o.value_read_bytes;
  value_write_bytes += o.value_write_bytes;
  return *this;
}

SpanTotals analyze_spans(const std::vector<TraceEvent>& events,
                         const husg::StoreMeta& meta, const char* root_cat,
                         const char* root_name, std::uint32_t value_bytes) {
  SpanTotals t;
  std::map<std::uint32_t, std::vector<const TraceEvent*>> lanes;
  for (const TraceEvent& e : events) {
    lanes[e.tid].push_back(&e);
    if (is(e, "engine", "cop_prefetch")) t.prefetch_s += secs(e.dur_ns);
    const bool swap_in = is(e, "values", "swap_in");
    if (swap_in || is(e, "values", "swap_out")) {
      t.value_swap_s += secs(e.dur_ns);
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(
              meta.interval_size(static_cast<std::uint32_t>(e.arg1))) *
          value_bytes;
      (swap_in ? t.value_read_bytes : t.value_write_bytes) += bytes;
    }
    // CSR indices hold interval_size + 1 u32 offsets: the out-index over the
    // source interval i, the in-index over the destination interval j.
    if (is(e, "cache", "load_out_index")) {
      t.index_bytes +=
          (meta.interval_size(static_cast<std::uint32_t>(e.arg1)) + 1ull) * 4;
    } else if (is(e, "cache", "load_in_index")) {
      t.index_bytes +=
          (meta.interval_size(static_cast<std::uint32_t>(e.arg2)) + 1ull) * 4;
    }
  }

  for (const TraceEvent& root : events) {
    if (!is(root, root_cat, root_name)) continue;
    const std::uint64_t begin = root.start_ns;
    const std::uint64_t end = root.start_ns + root.dur_ns;
    std::vector<Interval> all, apply, leaf;
    for (const TraceEvent* e : lanes[root.tid]) {
      if (e == &root || e->start_ns < begin ||
          e->start_ns + e->dur_ns > end) {
        continue;
      }
      const Interval iv{e->start_ns, e->start_ns + e->dur_ns};
      all.push_back(iv);
      if (is_apply_span(*e)) apply.push_back(iv);
      if (!is_grouping_span(*e)) leaf.push_back(iv);
    }
    const std::vector<Interval> apply_m = merged(std::move(apply));
    ++t.roots;
    t.root_s += secs(root.dur_ns);
    t.root_unspanned_s += secs(root.dur_ns - measure(merged(std::move(all))));
    t.apply_s +=
        secs(measure(apply_m) - overlap(apply_m, merged(std::move(leaf))));
  }
  return t;
}

}  // namespace perfbench
