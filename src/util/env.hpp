// Environment-variable knobs.
//
// The numeric knobs (CSRL_THREADS, CSRL_RHS_BLOCK, CSRL_LUMP) share one
// parser and one policy: an unset or empty variable means "not set"; a
// plain decimal integer in the knob's range is used as is; anything else
// (garbage, a sign, trailing characters, out of range) prints one stderr
// line naming the variable, the accepted range and the value used
// instead, and the knob falls back to its default.  A typo in the
// environment therefore never turns a correct run into an error.
// Programmatic values (CheckOptions fields) are validated by their own
// resolvers, which may throw.
#pragma once

#include <cstdint>

namespace csrl {

/// The value of environment variable `name` as an unsigned integer in
/// [lo, hi], or `fallback` when it is unset or empty, or (after one
/// stderr warning) malformed or out of range.  Never throws.
std::uint64_t env_uint(const char* name, std::uint64_t lo, std::uint64_t hi,
                       std::uint64_t fallback) noexcept;

}  // namespace csrl
