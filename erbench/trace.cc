#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace erbench {

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

uint64_t Tracer::NextId() {
  erlb::MutexLock lock(&mu_);
  return next_id_++;
}

uint64_t Tracer::Add(Span span) {
  if (!enabled_) return 0;
  erlb::MutexLock lock(&mu_);
  if (span.id == 0) span.id = next_id_++;
  const uint64_t id = span.id;
  spans_.push_back(std::move(span));
  return id;
}

size_t Tracer::size() const {
  erlb::MutexLock lock(&mu_);
  return spans_.size();
}

erlb::Status Tracer::WriteChromeJson(const std::string& path,
                                     const std::string& metadata_json) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += metadata_json;
  out += ",\"traceEvents\":[\n";
  {
    erlb::MutexLock lock(&mu_);
    int64_t origin = 0;
    for (const Span& s : spans_) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
    bool first = true;
    char buf[256];
    for (const Span& s : spans_) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\":";
      AppendJsonString(s.name, &out);
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                    "\"run\":%llu",
                    s.tid, (s.start_ns - origin) / 1e3,
                    (s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.run));
      out += buf;
      for (const auto& [name, value] : s.counts) {
        out.push_back(',');
        AppendJsonString(name, &out);
        std::snprintf(buf, sizeof(buf), ":%.17g", value);
        out += buf;
      }
      out += "}}";
    }
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  if (!file) return erlb::Status::IOError("cannot write trace " + path);
  return erlb::Status::OK();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, uint64_t parent,
                       uint64_t run)
    : tracer_(tracer) {
  if (!tracer_->enabled()) return;
  span_.name = std::move(name);
  span_.parent = parent;
  span_.run = run;
  span_.id = tracer_->NextId();
  span_.tid = ThreadIndex();
  span_.start_ns = NowNs();
  open_ = true;
}

void ScopedSpan::Count(std::string name, double value) {
  if (open_) span_.counts.emplace_back(std::move(name), value);
}

void ScopedSpan::End() {
  if (!open_) return;
  open_ = false;
  span_.end_ns = NowNs();
  tracer_->Add(std::move(span_));
}

}  // namespace erbench
