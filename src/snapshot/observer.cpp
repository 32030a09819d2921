#include "snapshot/observer.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace speedlight::snap {

/// Device i owns report slots [first_slot[i], first_slot[i + 1]), indexed
/// within by unit_slot(). Devices only ever append, so every layout is a
/// prefix of the next. Immutable once a round shares it.
struct RoundLayout {
  static constexpr std::uint32_t kNoDevice = 0xFFFFFFFFu;

  std::vector<std::size_t> first_slot{0};
  std::vector<std::uint32_t> device_of_node;  ///< NodeId -> device index.
  std::vector<net::NodeId> node_of_device;    ///< Device index -> NodeId.
  std::vector<std::uint32_t> device_of_slot;  ///< Slot -> device index.
};

namespace {
/// Fold a nonzero timestamp into a (min, max) pair where 0 means "empty".
void fold_extrema(sim::SimTime t, sim::SimTime& lo, sim::SimTime& hi) {
  if (t == 0) return;  // Never recorded (e.g. inconsistent report).
  if (lo == 0 || t < lo) lo = t;
  if (hi == 0 || t > hi) hi = t;
}
}  // namespace

void DeviceDigest::fold(const UnitReport& r) {
  ++received;
  if (r.consistent) {
    ++consistent;
    local_sum += r.local_value;
    channel_sum += r.channel_value;
  }
  if (r.inferred) ++inferred;
  fold_extrema(r.advance_time, advance_min, advance_max);
  fold_extrema(r.finalize_time, finalize_min, finalize_max);
}

bool GlobalSnapshot::all_consistent() const {
  return consistent_count() == received_total;
}

std::size_t GlobalSnapshot::consistent_count() const {
  std::size_t n = 0;
  for (const auto& d : digests) n += d.consistent;
  return n;
}

namespace {
sim::Duration span_of(const GlobalSnapshot& snap,
                      sim::SimTime DeviceDigest::* lo_field,
                      sim::SimTime DeviceDigest::* hi_field) {
  sim::SimTime lo = 0;
  sim::SimTime hi = 0;
  for (const auto& d : snap.digests) {
    fold_extrema(d.*lo_field, lo, hi);
    fold_extrema(d.*hi_field, lo, hi);
  }
  return hi - lo;  // Both zero when nothing was recorded.
}
}  // namespace

sim::Duration GlobalSnapshot::advance_span() const {
  return span_of(*this, &DeviceDigest::advance_min, &DeviceDigest::advance_max);
}

sim::Duration GlobalSnapshot::finalize_span() const {
  return span_of(*this, &DeviceDigest::finalize_min,
                 &DeviceDigest::finalize_max);
}

sim::SimTime GlobalSnapshot::latest_advance() const {
  sim::SimTime latest = 0;
  for (const auto& d : digests) {
    latest = std::max(latest, d.advance_max);
  }
  return latest;
}

std::uint64_t GlobalSnapshot::total_value(bool include_channel) const {
  std::uint64_t total = 0;
  for (const auto& d : digests) {
    total += d.local_sum;
    if (include_channel) total += d.channel_sum;
  }
  return total;
}

void GlobalSnapshot::store(std::size_t slot, const UnitReport& r) {
  state_[slot] = kOccupied | (r.consistent ? kConsistent : 0) |
                 (r.inferred ? kInferred : 0);
  values_[slot] = {.local_value = r.local_value,
                   .channel_value = r.channel_value,
                   .advance_time = r.advance_time,
                   .finalize_time = r.finalize_time};
}

namespace {
/// A value record as its four columns, in Column order.
std::array<std::uint64_t, 4> columns_of(const GlobalSnapshot::SlotValues& v) {
  return {v.local_value, v.channel_value,
          static_cast<std::uint64_t>(v.advance_time),
          static_cast<std::uint64_t>(v.finalize_time)};
}

/// Narrowest byte width that holds every offset in [0, range].
std::uint8_t width_for(std::uint64_t range) {
  if (range == 0) return 0;
  if (range <= 0xFF) return 1;
  if (range <= 0xFFFF) return 2;
  if (range <= 0xFFFFFFFF) return 4;
  return 8;
}
}  // namespace

void GlobalSnapshot::seal() {
  const std::size_t slots = state_.size();
  std::array<std::uint64_t, kColumns> lo;
  lo.fill(std::numeric_limits<std::uint64_t>::max());
  std::array<std::uint64_t, kColumns> hi{};
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if ((state_[slot] & kOccupied) == 0) continue;
    const auto v = columns_of(values_[slot]);
    for (std::size_t c = 0; c < kColumns; ++c) {
      if (v[c] == 0) {
        state_[slot] |= static_cast<std::uint8_t>(kZero << c);
        continue;
      }
      lo[c] = std::min(lo[c], v[c]);
      hi[c] = std::max(hi[c], v[c]);
    }
  }
  std::size_t bytes = 0;
  for (std::size_t c = 0; c < kColumns; ++c) {
    if (lo[c] > hi[c]) lo[c] = hi[c] = 0;  // No nonzero value.
    Column& col = columns_[c];
    col.base = lo[c];
    col.width = width_for(hi[c] - lo[c]);
    col.offset = bytes;
    bytes += slots * col.width;
  }
  packed_.assign(bytes, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if ((state_[slot] & kOccupied) == 0) continue;
    const auto v = columns_of(values_[slot]);
    for (std::size_t c = 0; c < kColumns; ++c) {
      const Column& col = columns_[c];
      if (v[c] == 0) continue;
      const std::uint64_t offset = v[c] - col.base;
      std::uint8_t* p = packed_.data() + col.offset + slot * col.width;
      for (std::size_t i = 0; i < col.width; ++i) {
        p[i] = static_cast<std::uint8_t>(offset >> (8 * i));
      }
    }
  }
  std::vector<SlotValues>().swap(values_);  // Release, not just clear.
  sealed_ = true;
}

UnitReport GlobalSnapshot::rebuild(std::size_t slot) const {
  const std::uint32_t d = layout_->device_of_slot[slot];
  const net::NodeId node = layout_->node_of_device[d];
  std::array<std::uint64_t, kColumns> v{};
  if (sealed_) {
    for (std::size_t c = 0; c < kColumns; ++c) {
      if ((state_[slot] & (kZero << c)) != 0) continue;
      const Column& col = columns_[c];
      const std::uint8_t* p = packed_.data() + col.offset + slot * col.width;
      std::uint64_t offset = 0;
      for (std::size_t i = 0; i < col.width; ++i) {
        offset |= std::uint64_t{p[i]} << (8 * i);
      }
      v[c] = col.base + offset;
    }
  } else {
    v = columns_of(values_[slot]);
  }
  return {.device = node,
          .unit = slot_unit(node, slot - layout_->first_slot[d]),
          .sid = id,
          .consistent = (state_[slot] & kConsistent) != 0,
          .inferred = (state_[slot] & kInferred) != 0,
          .local_value = v[0],
          .channel_value = v[1],
          .advance_time = static_cast<sim::SimTime>(v[2]),
          .finalize_time = static_cast<sim::SimTime>(v[3])};
}

net::NodeId GlobalSnapshot::device_node(std::size_t d) const {
  return layout_->node_of_device[d];
}

std::optional<UnitReport> GlobalSnapshot::report(const net::UnitId& u) const {
  if (!layout_ || u.node >= layout_->device_of_node.size()) {
    return std::nullopt;
  }
  const std::uint32_t d = layout_->device_of_node[u.node];
  if (d == RoundLayout::kNoDevice) return std::nullopt;
  const std::size_t slot = layout_->first_slot[d] + unit_slot(u);
  if (slot >= layout_->first_slot[d + 1] || (state_[slot] & kOccupied) == 0) {
    return std::nullopt;
  }
  return rebuild(slot);
}

Observer::Observer(sim::Simulator& sim, const sim::TimingModel& timing,
                   Options options)
    : sim_(sim),
      timing_(timing),
      options_(std::move(options)),
      space_(options_.snapshot.sid_space()),
      layout_(std::make_shared<RoundLayout>()) {
  using obs::MetricKind;
  auto& reg = sim_.metrics();
  reg.register_reader("observer.requested", MetricKind::Counter, [this] {
    return std::uint64_t{requested_count()};
  });
  reg.register_reader("observer.completed", MetricKind::Counter,
                      [this] { return std::uint64_t{completed_}; });
  reg.register_reader("observer.devices", MetricKind::Gauge,
                      [this] { return std::uint64_t{devices_.size()}; });
  reg.register_reader("observer.units", MetricKind::Gauge,
                      [this] { return std::uint64_t{total_units_}; });
  reg.register_reader("observer.store_bytes", MetricKind::Gauge, [this] {
    std::uint64_t total = 0;
    for (const auto& snap : rounds_) total += snap.store_bytes();
    return total;
  });
  reg.register_reader("observer.reports_dropped_down", MetricKind::Counter,
                      [this] { return reports_dropped_while_down_; });
  static constexpr std::array<const char*, kIgnoreReasons> kIgnoreNames = {
      "unknown_unit", "out_of_scope",      "unknown_sid",
      "straggler",    "unexpected_device", "duplicate"};
  for (std::size_t i = 0; i < kIgnoreReasons; ++i) {
    reg.register_reader(std::string("observer.reports_ignored.") +
                            kIgnoreNames[i],
                        MetricKind::Counter, [this, i] { return ignored_[i]; });
  }
  completion_latency_ = &reg.histogram("observer.completion_latency_ns");
}

void Observer::report_frame_thunk(void* ctx, std::uint16_t dev_index,
                                  const std::uint8_t* bytes,
                                  std::uint8_t len) {
  static_cast<Observer*>(ctx)->on_report_frame(dev_index, {bytes, len});
}

void Observer::register_device(ControlPlane* cp, sim::Endpoint rpc) {
  Device dev;
  dev.cp = cp;
  dev.units = cp->unit_ids();
  dev.rpc = rpc;
  total_units_ += dev.units.size();
  const auto dev_index = static_cast<std::uint16_t>(devices_.size());
  // Extend the layout new rounds start from; rounds already requested keep
  // theirs, so extend a copy if any shares it.
  if (layout_.use_count() > 1) {
    layout_ = std::make_shared<RoundLayout>(*layout_);
  }
  std::size_t slots = 0;
  for (const auto& u : dev.units) slots = std::max(slots, unit_slot(u) + 1);
  RoundLayout& layout = *layout_;
  layout.first_slot.push_back(layout.first_slot.back() + slots);
  layout.device_of_slot.resize(layout.first_slot.back(), dev_index);
  layout.node_of_device.push_back(cp->device());
  if (cp->device() >= layout.device_of_node.size()) {
    layout.device_of_node.resize(cp->device() + 1, RoundLayout::kNoDevice);
  }
  layout.device_of_node[cp->device()] = dev_index;
  blank_.digests.push_back({.expected = dev.units.size()});
  blank_.expected_total += dev.units.size();
  dev.decoder.configure(options_.wire, cp->device(), options_.wire_stats);
  for (const auto& u : dev.units) dev.decoder.add_unit(u);
  dev.decoder.begin_session(session_);
  cp->set_report_link(this, &Observer::report_frame_thunk, dev_index,
                      options_.wire, options_.wire_stats);
  devices_.push_back(std::move(dev));
  if (scope_) {
    relevant_.resize(layout.first_slot.back(), true);
    scope_device(dev_index);
  }
}

void Observer::post_rpc(Device& dev, sim::InplaceCallback fn) {
  if (dev.rpc.wired()) {
    dev.rpc.post(sim_.now() + timing_.observer_rpc_latency, std::move(fn));
  } else {
    sim_.after(timing_.observer_rpc_latency, std::move(fn));
  }
}

const GlobalSnapshot* Observer::result(VirtualSid id) const {
  return id == 0 || id > rounds_.size() ? nullptr : &rounds_[id - 1];
}

std::optional<VirtualSid> Observer::request_snapshot(sim::SimTime when) {
  // Out-of-band rollover enforcement (Section 5.3): never let the live id
  // spread exceed what the wire id space can disambiguate.
  const VirtualSid id = rounds_.size() + 1;
  const VirtualSid lowest = first_outstanding_ + 1;
  if (id - lowest >= space_.max_spread(options_.snapshot.channel_state)) {
    return std::nullopt;
  }

  // Pin the device set (and the sync-group membership): late-attached
  // devices are not part of this snapshot (Section 6, "Node attachment").
  GlobalSnapshot& snap = rounds_.emplace_back(blank_);
  snap.id = id;
  snap.scheduled_at = when;
  snap.layout_ = layout_;
  snap.state_.resize(layout_->first_slot.back());
  snap.values_.resize(layout_->first_slot.back());

  sim_.tracer().instant(obs::Category::Observer, obs::EventName::ObsRequest,
                        obs::observer_track(), sim_.now(), id);

  // Register the event with every device control plane (one RPC each).
  for (auto& dev : devices_) {
    ControlPlane* cp = dev.cp;
    post_rpc(dev, [cp, id, when]() { cp->schedule_snapshot(id, when); });
  }
  const sim::SimTime deadline = when + options_.completion_timeout;
  sim_.at(deadline, [this, id]() { timeout_snapshot(id); });
  return id;
}

void Observer::set_scope(const std::function<bool(const net::UnitId&)>& pred) {
  scope_ = pred;
  if (pred) {
    relevant_.assign(layout_->first_slot.back(), true);
  } else {
    relevant_.clear();
  }
  for (std::size_t d = 0; d < devices_.size(); ++d) scope_device(d);
}

void Observer::scope_device(std::size_t d) {
  Device& dev = devices_[d];
  std::vector<bool> mask;
  std::size_t expected = dev.units.size();
  if (scope_) {
    mask.assign(dev.units.size(), true);
    expected = 0;
    for (std::size_t i = 0; i < dev.units.size(); ++i) {
      const bool rel = scope_(dev.units[i]);
      mask[i] = rel;
      relevant_[layout_->first_slot[d] + unit_slot(dev.units[i])] = rel;
      expected += rel ? 1 : 0;
    }
  }
  DeviceDigest& blank = blank_.digests[d];
  blank_.expected_total -= blank.expected;
  blank_.expected_total += expected;
  blank.expected = expected;
  // The mask rides the same keyed channel as snapshot requests, so any
  // request made after this call is ordered behind it on every device.
  ControlPlane* cp = dev.cp;
  post_rpc(dev, [cp, mask]() { cp->set_report_scope(mask); });
}

void Observer::set_down(bool down) {
  if (down_ && !down) {
    // Restart: new wire session. The report-link decoders come back empty;
    // every control plane is told to adopt the session and re-keyframe.
    // In-flight frames from the old session are self-identifying and get
    // dropped at decode — under every encoding alike.
    ++session_;
    for (auto& dev : devices_) {
      dev.decoder.begin_session(session_);
      ControlPlane* cp = dev.cp;
      const std::uint8_t s = session_;
      post_rpc(dev, [cp, s]() { cp->on_observer_session(s); });
    }
  }
  down_ = down;
}

void Observer::on_report_frame(std::uint16_t dev_index,
                               std::span<const std::uint8_t> bytes) {
  if (down_) {
    // Dead socket: the frame is lost before it reaches the decoder, so the
    // delta chain breaks — the restart session bump re-keyframes it.
    ++reports_dropped_while_down_;
    return;
  }
  if (dev_index >= devices_.size()) return ignore(IgnoreReason::UnknownUnit);
  const auto r = devices_[dev_index].decoder.decode(bytes, sim_.now());
  if (!r) return;  // Stale session / malformed; counted by the decoder.
  on_report(dev_index, *r);
}

void Observer::on_report(std::uint16_t dev_index, const UnitReport& r) {
  const auto& first_slot = layout_->first_slot;
  const std::size_t slot = first_slot[dev_index] + unit_slot(r.unit);
  if (r.unit.node != devices_[dev_index].cp->device() ||
      slot >= first_slot[dev_index + 1]) {
    return ignore(IgnoreReason::UnknownUnit);
  }
  if (!relevant_.empty() && (slot >= relevant_.size() || !relevant_[slot])) {
    // Outside the sync group (control plane restarted mid-change).
    return ignore(IgnoreReason::OutOfScope);
  }
  if (r.sid == 0 || r.sid > rounds_.size()) {
    return ignore(IgnoreReason::UnknownSid);
  }
  GlobalSnapshot& snap = rounds_[r.sid - 1];
  if (snap.complete) return ignore(IgnoreReason::Straggler);
  if (dev_index >= snap.digests.size()) {
    return ignore(IgnoreReason::UnexpectedDevice);
  }
  // Duplicate delivery keeps the first copy.
  if (snap.state_[slot] != 0) return ignore(IgnoreReason::Duplicate);
  snap.store(slot, r);
  snap.digests[dev_index].fold(r);
  ++snap.received_total;
  sim_.tracer().instant(obs::Category::Observer, obs::EventName::ObsCollect,
                        obs::observer_track(), sim_.now(), r.sid,
                        obs::pack_unit(r.unit));
  check_complete(snap);
}

void Observer::check_complete(GlobalSnapshot& snap) {
  if (snap.complete || snap.received_total < snap.expected_total) return;

  snap.complete = true;
  snap.completed_at = sim_.now();
  ++completed_;
  // Nothing writes a completed round again (stragglers are ignored, the
  // timeout returns early), so seal it before anyone reads it.
  snap.seal();
  while (first_outstanding_ < rounds_.size() &&
         rounds_[first_outstanding_].complete) {
    ++first_outstanding_;
  }
  sim_.tracer().instant(obs::Category::Observer, obs::EventName::ObsComplete,
                        obs::observer_track(), sim_.now(), snap.id,
                        snap.received_total);
  if (completion_latency_ && snap.completed_at >= snap.scheduled_at) {
    completion_latency_->record(
        static_cast<std::uint64_t>(snap.completed_at - snap.scheduled_at));
  }
  if (on_complete_) on_complete_(snap);
}

void Observer::timeout_snapshot(VirtualSid id) {
  GlobalSnapshot& snap = rounds_[id - 1];
  if (snap.complete) return;

  // Exclude every expected device that has not delivered all its units:
  // its digest is zeroed and its slots cleared, so lookups and iteration
  // stop finding it.
  const RoundLayout& layout = *snap.layout_;
  for (std::size_t i = 0; i < snap.digests.size(); ++i) {
    DeviceDigest& d = snap.digests[i];
    if (d.received >= d.expected) continue;
    snap.excluded_devices.push_back(layout.node_of_device[i]);
    snap.expected_total -= d.expected;
    snap.received_total -= d.received;
    d = DeviceDigest{};
    std::fill(snap.state_.begin() + layout.first_slot[i],
              snap.state_.begin() + layout.first_slot[i + 1], 0);
  }
  check_complete(snap);
}

}  // namespace speedlight::snap
