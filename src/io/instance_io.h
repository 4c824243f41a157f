// Plain-text serialization of instances and arrangements.
//
// The format is line-oriented, diff-friendly, and versioned:
//
//   geacc-instance v1
//   similarity euclidean 10000
//   dim 20
//   events 3
//   event <capacity> <attr_0> ... <attr_{d-1}>     (×|V|)
//   users 5
//   user <capacity> <attr_0> ... <attr_{d-1}>      (×|U|)
//   conflicts 1
//   conflict <event_a> <event_b>                   (×|CF|)
//
//   geacc-arrangement v1
//   pairs 7
//   pair <event> <user>                            (×|M|)
//
// Writers emit attributes with AppendDouble (the bytes of "%.17g") and
// readers parse them with ParseDouble (util/string_util.h), so a
// save/load round trip is bit-exact for every finite double, subnormals
// included. Readers return std::nullopt with a diagnostic on malformed
// input instead of aborting — files cross trust boundaries, unlike
// in-process invariants.

#ifndef GEACC_IO_INSTANCE_IO_H_
#define GEACC_IO_INSTANCE_IO_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "core/arrangement.h"
#include "core/instance.h"

namespace geacc {

// ----- instances -----

void WriteInstance(const Instance& instance, std::ostream& os);
bool WriteInstanceToFile(const Instance& instance, const std::string& path);

// On failure returns nullopt and, if `error` is non-null, stores a
// human-readable reason including the offending line number.
std::optional<Instance> ReadInstance(std::istream& is,
                                     std::string* error = nullptr);
std::optional<Instance> ReadInstanceFromFile(const std::string& path,
                                             std::string* error = nullptr);

// ----- arrangements -----

void WriteArrangement(const Arrangement& arrangement, std::ostream& os);
bool WriteArrangementToFile(const Arrangement& arrangement,
                            const std::string& path);

// `instance` provides the dimensions; pair ids are validated against it.
std::optional<Arrangement> ReadArrangement(std::istream& is,
                                           const Instance& instance,
                                           std::string* error = nullptr);
std::optional<Arrangement> ReadArrangementFromFile(
    const std::string& path, const Instance& instance,
    std::string* error = nullptr);

}  // namespace geacc

#endif  // GEACC_IO_INSTANCE_IO_H_
