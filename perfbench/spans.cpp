#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

std::size_t SpanLog::open(std::string name, std::uint64_t step) {
  Span span;
  span.name = std::move(name);
  span.start_us = micros_between(origin_, Clock::now());
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.step = step;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_us = micros_between(origin_, Clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent = s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"trace\": %llu, \"span\": %zu, \"parent\": %lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.step), i, parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
