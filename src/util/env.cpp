#include "util/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace csrl {

std::uint64_t env_uint(const char* name, std::uint64_t lo, std::uint64_t hi,
                       std::uint64_t fallback) noexcept {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  // Digits only: strtoull would also take leading blanks and a sign
  // ("-1" wraps to 2^64 - 1), which this policy rejects.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t parsed = 0;
  bool valid = true;
  for (const char* c = env; valid && *c != '\0'; ++c) {
    const auto digit = static_cast<std::uint64_t>(*c - '0');
    valid = *c >= '0' && *c <= '9' && parsed <= (kMax - digit) / 10;
    if (valid) parsed = parsed * 10 + digit;
  }
  if (valid && parsed >= lo && parsed <= hi) return parsed;
  std::fprintf(stderr,
               "csrl: %s must be an integer in [%llu, %llu], got \"%s\"; "
               "using %llu\n",
               name, static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi), env,
               static_cast<unsigned long long>(fallback));
  return fallback;
}

}  // namespace csrl
