// Plain-text serialization of mutation traces (dyn/mutation.h).
//
// A trace file embeds the epoch-0 instance in the instance_io format,
// followed by the mutation list — one line per mutation, keyed by the
// MutationKindName keywords:
//
//   geacc-trace v1
//   geacc-instance v1
//   ...                                     (instance_io block)
//   mutations 5
//   add_user <capacity> <attr_0> ... <attr_{d-1}>
//   add_event <capacity> <attr_0> ... <attr_{d-1}>
//   remove_user <id>
//   remove_event <id>
//   add_conflict <event_a> <event_b>
//   set_event_capacity <event> <capacity>
//   set_user_capacity <user> <capacity>
//   set_event_slot <event> <slot>
//   set_user_availability <user> <mask>
//
// Attributes round-trip bit-exactly, subnormals included, through the
// shared number codec (AppendDouble/ParseDouble, util/string_util.h), as
// in instance_io. The reader validates structure only (kinds, arity,
// numeric ranges ≥ 0, capacities ≥ 1, attribute arity = dim, slot ids <
// kMaxTimeSlots, availability masks in [0, 2^kMaxTimeSlots)); whether an
// id is alive at its epoch is a replay-time property checked by
// DynamicInstance. Like the other readers, malformed input returns
// std::nullopt with a diagnostic rather than aborting.

#ifndef GEACC_IO_TRACE_IO_H_
#define GEACC_IO_TRACE_IO_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "dyn/mutation.h"

namespace geacc {

// ----- single mutations -----
//
// One mutation ⇔ one line of the trace format. These are the shared
// encode/decode for every consumer of the encoding: trace files, the
// service WAL (svc/wal.h), and the wire protocol's kMutate payload
// (svc/wire.h) — one parser, one error discipline.

// AppendMutationLine appends the line, without its newline, to `out`
// (writers reuse one buffer across lines); FormatMutationLine returns it.
void AppendMutationLine(const Mutation& mutation, std::string* out);
std::string FormatMutationLine(const Mutation& mutation);

// Parses one mutation line (sans newline) against attribute dimension
// `dim`. Returns nullopt with a reason on malformed input.
std::optional<Mutation> ParseMutationLine(std::string_view line, int dim,
                                          std::string* error = nullptr);

// ----- traces -----

void WriteTrace(const MutationTrace& trace, std::ostream& os);
bool WriteTraceToFile(const MutationTrace& trace, const std::string& path);

// On failure returns nullopt and, if `error` is non-null, stores a
// human-readable reason including the offending line number (relative to
// the start of the mutation section for mutation lines).
std::optional<MutationTrace> ReadTrace(std::istream& is,
                                       std::string* error = nullptr);
std::optional<MutationTrace> ReadTraceFromFile(const std::string& path,
                                               std::string* error = nullptr);

}  // namespace geacc

#endif  // GEACC_IO_TRACE_IO_H_
