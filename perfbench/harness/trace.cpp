#include "harness/trace.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>

namespace perfbench {

SpanBuffer& TraceLog::buffer(std::size_t capacity) {
  buffers_.push_back(std::make_unique<SpanBuffer>(capacity));
  return *buffers_.back();
}

std::size_t TraceLog::span_count() const noexcept {
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

std::size_t TraceLog::dropped() const noexcept {
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

double TraceLog::mean_ms(const char* name) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      if (std::strcmp(s.name, name) != 0) continue;
      sum += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

bool TraceLog::write(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      if (!have_origin || s.start_ns < origin) origin = s.start_ns;
      have_origin = true;
    }
  }
  out << std::fixed << std::setprecision(3) << "[";
  bool first = true;
  for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
    const std::vector<Span>& spans = buffers_[tid]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << tid << ",\"ts\":"
          << static_cast<double>(s.start_ns - origin) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
