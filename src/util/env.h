/**
 * @file
 * Shared parsing of SUPERBNN_* environment knobs.
 *
 * Every integer knob in the library (SUPERBNN_THREADS sizing the
 * shared executor pool, the SUPERBNN_SERVE_* serving knobs) follows
 * the same contract: a well-formed value wins, an unset variable falls
 * back to the caller's default, and a set-but-invalid value (garbage,
 * out-of-range, trailing junk like "4x") is IGNORED with a one-line
 * stderr notice — never a silent partial parse, and never spam: each
 * distinct (variable, value) pair warns at most once per process,
 * mirroring how SUPERBNN_SIMD reports unusable overrides.
 */

#ifndef SUPERBNN_UTIL_ENV_H
#define SUPERBNN_UTIL_ENV_H

#include <cstddef>
#include <cstdint>

namespace superbnn::util {

/**
 * The environment variable @p name parsed as a base-10 integer in
 * [@p min_value, @p max_value], or @p fallback when the variable is
 * unset or invalid (with the warn-once stderr notice described in the
 * file header). @p min_value distinguishes knobs where 0 is meaningful
 * (e.g. a zero-linger scheduler) from knobs where it is not (a pool
 * of 0 threads); @p max_value caps knobs whose consumers cannot take
 * any size_t (a linger added to a clock time point).
 */
std::size_t envSize(const char *name, std::size_t fallback,
                    std::size_t min_value = 0,
                    std::size_t max_value = SIZE_MAX);

/**
 * The environment variable @p name parsed as a boolean flag: "1" is
 * true, "0" is false, unset falls back to @p fallback, and any other
 * value is ignored with the warn-once stderr notice. Used by the
 * SUPERBNN_PIN worker-affinity knob.
 */
bool envFlag(const char *name, bool fallback);

/**
 * Emit the shared "ignoring invalid NAME value 'VALUE' (want WANT);
 * using USED" notice, at most once per distinct (name, value) pair per
 * process. Exposed so non-integer knobs (SUPERBNN_NUMA's
 * auto|off|<n> grammar) report malformed values with the exact same
 * contract as envSize().
 */
void envWarnOnce(const char *name, const char *value, const char *want,
                 const char *used);

} // namespace superbnn::util

#endif // SUPERBNN_UTIL_ENV_H
