// In-memory span log of the traced run.  Spans are recorded by the
// benchmark around its calls into each layer's public functions (the
// program itself carries no instrumentation): a name and a duration.
// Each client thread owns its own log; nothing here is shared.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace rtbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double ns = 0;
  };

  /// A span over a scope, logged by close() or the destructor, its
  /// duration also stored through `out` when given; a no-op when `log`
  /// is null (untraced sections).
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, double* out = nullptr)
        : log_(log), name_(name), out_(out),
          start_(log == nullptr ? 0 : now_ns()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// Ends and logs the span (once); returns its duration in ns
    /// (0 untraced).
    double close() {
      if (log_ == nullptr) return ns_;
      ns_ = static_cast<double>(now_ns() - start_);
      log_->spans_.push_back(Span{name_, ns_});
      if (out_ != nullptr) *out_ = ns_;
      log_ = nullptr;
      return ns_;
    }

   private:
    SpanLog* log_;
    const char* name_;
    double* out_;
    std::int64_t start_;
    double ns_ = 0;
  };

  /// Runs `body`, logging its wall span under `name` (and storing its
  /// duration through `ns` when given).
  template <typename F>
  decltype(auto) record(const char* name, F&& body, double* ns = nullptr) {
    Scope scope(this, name, ns);
    return body();  // the span closes once the result exists
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Appends another client's spans.
  void merge(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

 private:
  std::vector<Span> spans_;
};

/// Scalar per-layer counters gathered alongside the spans.
using Counters = std::map<std::string, double>;

}  // namespace rtbench
