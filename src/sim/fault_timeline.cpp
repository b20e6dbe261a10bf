#include "sim/fault_timeline.hpp"

#include <algorithm>
#include <cmath>

namespace bml {

namespace {

/// Exponential draw with mean `mean`, quantised to whole seconds with a
/// 1 s floor — fault events must land on the 1 Hz grid both execution
/// strategies share, and a 0 s gap/repair would be degenerate. Clamped
/// far beyond any simulated horizon so the cast can never overflow.
TimePoint exponential_seconds(Rng& rng, Seconds mean) {
  const double u = rng.uniform(0.0, 1.0);  // in [0, 1), so 1 - u in (0, 1]
  const double draw = std::min(-mean * std::log(1.0 - u), 1.0e15);
  return std::max<TimePoint>(1, static_cast<TimePoint>(std::ceil(draw)));
}

}  // namespace

FaultTimeline::FaultTimeline(const FaultModel& model, std::size_t arch_kinds,
                             std::size_t domains) {
  crews_ = model.crews;
  if (model.mtbf > 0.0) {
    streams_.reserve(domains * arch_kinds);
    for (std::size_t d = 0; d < domains; ++d)
      for (std::size_t a = 0; a < arch_kinds; ++a) {
        const auto key = static_cast<std::uint64_t>(d * arch_kinds + a + 1);
        Stream stream{Rng(model.seed + 0x9E3779B97F4A7C15ULL * key),
                      model.mtbf,
                      model.mttr,
                      d,
                      a,
                      0,
                      0};
        advance(stream);
        streams_.push_back(std::move(stream));
      }
  }
  if (model.group_active()) {
    const auto racks = static_cast<std::size_t>(model.groups);
    group_streams_.reserve(domains * racks);
    for (std::size_t d = 0; d < domains; ++d)
      for (std::size_t g = 0; g < racks; ++g) {
        const auto key = static_cast<std::uint64_t>(
            domains * arch_kinds + d * racks + g + 1);
        Stream stream{Rng(model.seed + 0x9E3779B97F4A7C15ULL * key),
                      model.group_mtbf,
                      model.group_mttr,
                      d,
                      g,
                      0,
                      0};
        advance(stream);
        group_streams_.push_back(std::move(stream));
      }
  }
}

void FaultTimeline::advance(Stream& stream) {
  stream.next_strike += exponential_seconds(stream.rng, stream.mtbf);
  stream.next_repair_duration = exponential_seconds(stream.rng, stream.mttr);
}

TimePoint FaultTimeline::next_strike_min() const {
  if (strike_dirty_) {
    TimePoint next = kNever;
    for (const Stream& stream : streams_)
      next = std::min(next, stream.next_strike);
    for (const Stream& stream : group_streams_)
      next = std::min(next, stream.next_strike);
    cached_strike_ = next;
    strike_dirty_ = false;
  }
  return cached_strike_;
}

TimePoint FaultTimeline::next_event() const {
  return std::min(next_repair(), next_strike_min());
}

std::optional<FaultEvent> FaultTimeline::pop(TimePoint now) {
  // Nothing due: the common per-span probe, answered from the cached
  // strike min and the sorted repair head without touching the streams.
  if (next_strike_min() > now && next_repair() > now) return std::nullopt;
  // Repairs win ties with failure strikes (a repaired machine still comes
  // back Off, so the order is conventional — what matters is that it is
  // fixed and shared by both execution strategies). Machine strikes win
  // ties with group strikes by the same convention.
  const bool repair_due = !repairs_.empty() && repairs_.front().time <= now;
  Stream* best = nullptr;
  bool best_group = false;
  for (Stream& stream : streams_) {
    if (stream.next_strike > now) continue;
    if (best == nullptr || stream.next_strike < best->next_strike) best = &stream;
    // Streams are scanned in (domain, arch) order, so on time ties the
    // first hit already is the canonical winner.
  }
  for (Stream& stream : group_streams_) {
    if (stream.next_strike > now) continue;
    if (best == nullptr || stream.next_strike < best->next_strike) {
      best = &stream;
      best_group = true;
    }
  }
  if (repair_due &&
      (best == nullptr || repairs_.front().time <= best->next_strike)) {
    const Repair repair = repairs_.front();
    repairs_.erase(repairs_.begin());
    // The completion frees a crew: the oldest waiter starts its repair at
    // this completion's timestamp (both strategies process the same
    // completion at the same instant, so the handoff is deterministic).
    if (!pending_.empty()) {
      const PendingRepair next = pending_.front();
      pending_.pop_front();
      insert_active(
          Repair{repair.time + next.duration, next.domain, next.arch, next.seq});
    }
    return FaultEvent{repair.time, repair.domain, repair.arch, true, 0};
  }
  if (best == nullptr) return std::nullopt;
  FaultEvent event{best->next_strike, best->domain, best->arch, false,
                   best->next_repair_duration};
  if (best_group) {
    event.group_strike = true;
    event.group = best->arch;
    event.arch = 0;
  }
  advance(*best);
  strike_dirty_ = true;
  return event;
}

void FaultTimeline::schedule_repair(TimePoint now, TimePoint duration,
                                    std::size_t domain, std::size_t arch) {
  const std::uint64_t seq = next_seq_++;
  if (crews_ > 0 && repairs_.size() >= static_cast<std::size_t>(crews_)) {
    pending_.push_back(PendingRepair{duration, domain, arch, seq});
    return;
  }
  insert_active(Repair{now + duration, domain, arch, seq});
}

void FaultTimeline::insert_active(const Repair& repair) {
  const auto pos = std::upper_bound(
      repairs_.begin(), repairs_.end(), repair, [](const Repair& x, const Repair& y) {
        if (x.time != y.time) return x.time < y.time;
        if (x.domain != y.domain) return x.domain < y.domain;
        if (x.arch != y.arch) return x.arch < y.arch;
        return x.seq < y.seq;
      });
  repairs_.insert(pos, repair);
}

}  // namespace bml
