#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "stats.h"

namespace perfbench {

std::atomic<Tracer*> Tracer::active_{nullptr};

Tracer::Tracer(std::size_t capacity) : buffer_(capacity), epoch_(now_ns()) {}

std::uint32_t Tracer::thread_index() {
  static std::atomic<std::uint32_t> counter{0};
  thread_local const std::uint32_t index = counter.fetch_add(1);
  return index;
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::uint64_t request, std::uint32_t calls) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buffer_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = buffer_[i];
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.calls = calls;
  s.thread = thread_index();
  s.start_ns = now_ns() - epoch_;
  s.end_ns = s.start_ns;
  return static_cast<std::int64_t>(i);
}

void Tracer::end(std::int64_t id) {
  buffer_[static_cast<std::size_t>(id)].end_ns = now_ns() - epoch_;
}

std::int64_t Tracer::record(const char* name, std::int64_t parent,
                            std::uint64_t request, std::uint32_t calls,
                            std::uint64_t start_abs_ns,
                            std::uint64_t end_abs_ns) {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buffer_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = buffer_[i];
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.calls = calls;
  s.thread = thread_index();
  s.start_ns = start_abs_ns - epoch_;
  s.end_ns = end_abs_ns - epoch_;
  return static_cast<std::int64_t>(i);
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n = std::min(next_.load(), buffer_.size());
  return std::vector<Span>(buffer_.begin(),
                           buffer_.begin() + static_cast<std::ptrdiff_t>(n));
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu,\"calls\":%u}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.calls);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      // Clip each child to the parent's interval; a child that sticks out
      // only covers the part inside.
      const std::uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0, run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns) -
              static_cast<double>(covered);
  }
  return self;
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                  double wall_ns) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerRow> rows;
  std::map<std::string, std::vector<double>> per_call;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerRow& row = rows[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    ++row.spans;
    row.calls += s.calls;
    row.total_ns += dur;
    row.self_ns += self[i];
    per_call[s.name].push_back(dur / static_cast<double>(std::max(s.calls, 1u)));
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    row.name = name;
    row.p50_ns_per_call = percentile(per_call[name], 50.0);
    row.wall_share = wall_ns > 0.0 ? row.self_ns / wall_ns : 0.0;
    out.push_back(row);
  }
  return out;
}

}  // namespace perfbench
