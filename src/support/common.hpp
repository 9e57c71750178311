// Common foundation macros and type aliases used across the HTVM
// reproduction. Kept intentionally tiny: anything with behaviour lives in a
// dedicated header (status, logging, ...).
#pragma once

#include <concepts>
#include <cstdint>
#include <cstddef>
#include <type_traits>

namespace htvm {

using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

// `T` is `Record` or `const Record`. A record declares its field list once,
// as `template <class V, FieldsOf<Record> T> void Fields(V& v, T& r)`, and
// that one walk serves the visitors that read the record (serializers,
// fingerprints) and the ones that fill it in (deserializers).
template <class T, class Record>
concept FieldsOf = std::same_as<std::remove_const_t<T>, Record>;

}  // namespace htvm

// Marks a branch that is intentionally unreachable; aborts in all builds so
// invariant violations are loud during simulation runs.
#define HTVM_UNREACHABLE(msg)                                   \
  do {                                                          \
    ::htvm::detail::FatalError(__FILE__, __LINE__,              \
                               "unreachable: " msg);            \
  } while (0)

// Invariant check that is always on (simulator correctness beats speed here;
// the hot loops that matter are the reference kernels which use plain
// indexing, not this macro).
#define HTVM_CHECK(cond)                                        \
  do {                                                          \
    if (!(cond)) {                                              \
      ::htvm::detail::FatalError(__FILE__, __LINE__,            \
                                 "check failed: " #cond);       \
    }                                                           \
  } while (0)

#define HTVM_CHECK_MSG(cond, msg)                               \
  do {                                                          \
    if (!(cond)) {                                              \
      ::htvm::detail::FatalError(__FILE__, __LINE__,            \
                                 "check failed: " #cond " — " msg); \
    }                                                           \
  } while (0)

namespace htvm::detail {
[[noreturn]] void FatalError(const char* file, int line, const char* what);
}  // namespace htvm::detail
