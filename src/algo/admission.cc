#include "algo/admission.h"

#include "util/memory.h"

namespace geacc {

Admission::Admission(const Instance& instance)
    : conflicts_(&instance.conflicts()),
      event_seats_(instance.num_events()),
      user_seats_(instance.num_users()),
      arrangement_(instance.num_events(), instance.num_users()) {
  for (EventId v = 0; v < instance.num_events(); ++v) {
    event_seats_[v] = instance.event_capacity(v);
  }
  for (UserId u = 0; u < instance.num_users(); ++u) {
    user_seats_[u] = instance.user_capacity(u);
  }
}

Admission::Admission(std::vector<int> event_seats, std::vector<int> user_seats,
                     const ConflictGraph& conflicts)
    : conflicts_(&conflicts),
      event_seats_(std::move(event_seats)),
      user_seats_(std::move(user_seats)),
      arrangement_(static_cast<int>(event_seats_.size()),
                   static_cast<int>(user_seats_.size())) {}

uint64_t Admission::ByteEstimate() const {
  return VectorBytes(event_seats_) + VectorBytes(user_seats_) +
         arrangement_.ByteEstimate();
}

}  // namespace geacc
