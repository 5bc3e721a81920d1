#include "util/fault_injector.h"

#include <algorithm>
#include <charconv>
#include <limits>

#include "util/log.h"

namespace ep {

void FaultInjector::arm(const std::string& site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site] = Armed{spec, 0, 0};
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
  armed_.store(!sites_.empty(), std::memory_order_relaxed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_.store(false, std::memory_order_relaxed);
  rng_.reseed(0xfa17ED5EEDULL);
}

void FaultInjector::reseed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.reseed(seed);
}

const FaultSpec* FaultInjector::fire(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return nullptr;
  Armed& a = it->second;
  const long tick = a.tick++;
  if (tick < a.spec.atTick) return nullptr;
  if (a.spec.count >= 0 && a.fired >= a.spec.count) return nullptr;
  ++a.fired;
  logDebug("fault injector: %s fires at pass %ld", site.c_str(), tick);
  return &a.spec;
}

void FaultInjector::corrupt(std::span<double> data, const FaultSpec& spec) {
  if (data.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx =
      static_cast<std::size_t>(rng_.below(static_cast<std::uint64_t>(data.size())));
  switch (spec.kind) {
    case FaultKind::kNaN:
      data[idx] = std::numeric_limits<double>::quiet_NaN();
      break;
    case FaultKind::kSpike:
      data[idx] = (data[idx] == 0.0 ? 1.0 : data[idx]) * spec.magnitude;
      break;
    case FaultKind::kTruncate:
    case FaultKind::kError:
      break;  // stream/error-site semantics; nothing to corrupt in a buffer
  }
}

void FaultInjector::corruptBytes(std::span<std::uint8_t> data,
                                 const FaultSpec& spec) {
  if (data.empty() || spec.kind == FaultKind::kTruncate ||
      spec.kind == FaultKind::kError) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t idx = static_cast<std::size_t>(
      rng_.below(static_cast<std::uint64_t>(data.size())));
  data[idx] ^= static_cast<std::uint8_t>(1U << rng_.below(8));
}

long FaultInjector::fireCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

std::span<const char* const> knownFaultSites() {
  static constexpr const char* kSites[] = {
      "nesterov.grad",     "fft.forward",   "bookshelf.line",
      "legalize.displace", "detail.swap",   "snapshot.write",
      "parallel.task",     "serve.request", "serve.accept",
      "io.write",          "io.fsync",      "io.rename",
      "io.enospc",
  };
  return kSites;
}

const char* faultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kNaN: return "nan";
    case FaultKind::kSpike: return "spike";
    case FaultKind::kTruncate: return "trunc";
    case FaultKind::kError: return "error";
  }
  return "nan";
}

bool faultKindFromName(std::string_view name, FaultKind* out) {
  for (const FaultKind k : {FaultKind::kNaN, FaultKind::kSpike,
                            FaultKind::kTruncate, FaultKind::kError}) {
    if (name == faultKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

namespace {

/// Whole-string integer parse: empty, sign-only or partial input fails.
template <typename Int>
bool parseWholeInt(std::string_view s, Int* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Status parseFaultInjection(std::string_view arg, std::string* site,
                           FaultSpec* spec) {
  const auto eq = arg.find('=');
  const auto at = arg.find('@');
  if (eq == std::string_view::npos || at == std::string_view::npos ||
      at < eq) {
    return Status::invalidInput("expected site=kind@tick[xN]");
  }
  const std::string_view siteName = arg.substr(0, eq);
  const auto sites = knownFaultSites();
  if (std::find(sites.begin(), sites.end(), siteName) == sites.end()) {
    return Status::invalidInput("unknown fault site '" +
                                std::string(siteName) + "'");
  }
  FaultSpec parsed = *spec;
  if (!faultKindFromName(arg.substr(eq + 1, at - eq - 1), &parsed.kind)) {
    return Status::invalidInput("fault kind must be nan|spike|trunc|error");
  }
  std::string_view tick = arg.substr(at + 1);
  const auto x = tick.find('x');
  if (x != std::string_view::npos) {
    if (!parseWholeInt(tick.substr(x + 1), &parsed.count) ||
        parsed.count == 0 || parsed.count < -1) {
      return Status::invalidInput(
          "fault count must be a positive integer or -1");
    }
    tick = tick.substr(0, x);
  }
  if (!parseWholeInt(tick, &parsed.atTick) || parsed.atTick < 0) {
    return Status::invalidInput("fault tick must be a non-negative integer");
  }
  *site = std::string(siteName);
  *spec = parsed;
  return Status::okStatus();
}

}  // namespace ep
