#include "check/invariants.hpp"

#include <algorithm>
#include <sstream>

namespace speedlight::check {

namespace {

std::string unit_str(const net::UnitId& u) {
  std::ostringstream os;
  os << "s" << u.node << "/p" << u.port
     << (u.direction == net::Direction::Ingress ? "/in" : "/eg");
  return os.str();
}

bool flow_metric(sw::MetricKind m) {
  return m == sw::MetricKind::PacketCount || m == sw::MetricKind::ByteCount;
}

}  // namespace

sim::Duration sync_span_bound(sim::Duration ptp_residual_stddev,
                              double drift_ppm,
                              sim::Duration total_duration) {
  const auto drift_ns = static_cast<sim::Duration>(
      drift_ppm * 1e-6 * static_cast<double>(total_duration));
  return sim::usec(150) + 8 * ptp_residual_stddev + 2 * drift_ns;
}

std::vector<Violation> ConsistencyChecker::check_all(
    const core::SnapshotCampaign& campaign) {
  std::vector<Violation> out;
  const auto results = campaign.results(net_);

  if (options_.expect_complete) {
    if (results.size() != campaign.ids.size()) {
      std::ostringstream os;
      os << "only " << results.size() << " of " << campaign.ids.size()
         << " accepted requests completed";
      out.push_back({"liveness", 0, os.str()});
    }
    for (const auto* s : results) {
      if (!s->excluded_devices.empty()) {
        std::ostringstream os;
        os << s->excluded_devices.size()
           << " device(s) excluded without any configured fault";
        out.push_back({"liveness", s->id, os.str()});
      }
    }
  }

  const snap::GlobalSnapshot* prev = nullptr;
  for (const auto* s : results) {
    check_structure(*s, out);
    check_conservation(*s, out);
    check_sync_span(*s, out);
    if (prev != nullptr) {
      check_monotonicity(*prev, *s, out);
      check_advance_order(*prev, *s, out);
    }
    prev = s;
  }
  return out;
}

void ConsistencyChecker::check_structure(const snap::GlobalSnapshot& s,
                                         std::vector<Violation>& out) const {
  const auto excluded = [&s](net::NodeId node) {
    return std::find(s.excluded_devices.begin(), s.excluded_devices.end(),
                     node) != s.excluded_devices.end();
  };
  // Excluded devices' digests are zeroed, so this sums the rest.
  std::size_t expected = 0;
  for (const auto& d : s.digests) expected += d.expected;
  // Refolding the stored reports must reproduce the digests the observer
  // folded as they arrived: a store or decode error shows up here.
  std::vector<snap::DeviceDigest> refolded(s.digests.size());
  std::size_t dev = 0;  // reports() runs in device registration order.
  std::size_t stored = 0;
  for (const auto& r : s.reports()) {
    ++stored;
    if (r.sid != s.id) {
      std::ostringstream os;
      os << unit_str(r.unit) << " report carries sid " << r.sid;
      out.push_back({"structure", s.id, os.str()});
    }
    if (excluded(r.device)) {
      out.push_back({"structure", s.id,
                     unit_str(r.unit) + " reported by excluded device"});
    }
    while (dev < s.digests.size() && s.device_node(dev) != r.device) ++dev;
    if (dev == s.digests.size()) {
      out.push_back({"structure", s.id,
                     unit_str(r.unit) + " out of device order"});
      break;
    }
    refolded[dev].fold(r);
  }
  if (stored != expected) {
    std::ostringstream os;
    os << stored << " reports, expected " << expected;
    out.push_back({"structure", s.id, os.str()});
  }
  for (std::size_t d = 0; d < s.digests.size(); ++d) {
    if (excluded(s.device_node(d))) continue;
    refolded[d].expected = s.digests[d].expected;
    if (refolded[d] != s.digests[d]) {
      std::ostringstream os;
      os << "device " << s.device_node(d)
         << " digest differs from its stored reports";
      out.push_back({"structure", s.id, os.str()});
    }
  }
}

void ConsistencyChecker::check_conservation(const snap::GlobalSnapshot& s,
                                            std::vector<Violation>& out) {
  // Trunk-level flow conservation needs channel state and a flow metric;
  // anything else has no exact per-channel equation to check.
  if (!net_.options().snapshot.channel_state ||
      !flow_metric(net_.options().metric)) {
    return;
  }
  const auto& trunks = net_.spec().trunks;
  for (std::size_t t = 0; t < trunks.size(); ++t) {
    const auto& tr = trunks[t];
    for (const bool a_to_b : {true, false}) {
      const auto sa = static_cast<net::NodeId>(a_to_b ? tr.switch_a : tr.switch_b);
      const auto sb = static_cast<net::NodeId>(a_to_b ? tr.switch_b : tr.switch_a);
      const auto pa = a_to_b ? tr.port_a : tr.port_b;
      const auto pb = a_to_b ? tr.port_b : tr.port_a;
      const auto eg = s.report({sa, pa, net::Direction::Egress});
      const auto in = s.report({sb, pb, net::Direction::Ingress});
      if (!eg || !in) continue;
      if (!eg->consistent || !in->consistent) continue;

      const std::uint64_t sent = eg->local_value;
      std::uint64_t received = in->local_value;
      if (options_.subtract_channel_state) received += in->channel_value;
      // Packets lost on the wire were counted at the egress unit but can
      // never reach the ingress unit or its channel state; every such loss
      // widens the equation by at most one packet's worth of metric. The
      // link's lifetime drop count therefore bounds the residual exactly
      // when it is zero and conservatively otherwise.
      const std::uint64_t slack =
          net_.trunk_link(t, a_to_b).packets_dropped() * options_.per_drop_slack;
      ++conservation_checked_;
      if (sent < received || sent - received > slack) {
        std::ostringstream os;
        os << unit_str({sa, pa, net::Direction::Egress}) << " sent " << sent
           << " but " << unit_str({sb, pb, net::Direction::Ingress})
           << " accounts " << received << " (slack " << slack << ")";
        out.push_back({"conservation", s.id, os.str()});
      }
    }
  }
}

void ConsistencyChecker::check_sync_span(const snap::GlobalSnapshot& s,
                                         std::vector<Violation>& out) const {
  if (options_.sync_span_bound <= 0) return;
  const sim::Duration span = s.advance_span();
  if (span > options_.sync_span_bound) {
    std::ostringstream os;
    os << "advance span " << sim::to_usec(span) << "us exceeds bound "
       << sim::to_usec(options_.sync_span_bound) << "us";
    out.push_back({"sync-span", s.id, os.str()});
  }
}

void ConsistencyChecker::check_monotonicity(const snap::GlobalSnapshot& prev,
                                            const snap::GlobalSnapshot& cur,
                                            std::vector<Violation>& out) {
  for (const auto& r : cur.reports()) {
    if (!r.consistent || r.inferred) continue;
    const auto before = prev.report(r.unit);
    if (!before || !before->consistent || before->inferred) continue;
    if (r.local_value < before->local_value) {
      std::ostringstream os;
      os << unit_str(r.unit) << " went from " << before->local_value
         << " (id " << prev.id << ") to " << r.local_value;
      out.push_back({"monotonicity", cur.id, os.str()});
    }
  }
}

void ConsistencyChecker::check_advance_order(const snap::GlobalSnapshot& prev,
                                             const snap::GlobalSnapshot& cur,
                                             std::vector<Violation>& out) {
  for (const auto& r : cur.reports()) {
    if (r.advance_time == 0) continue;
    const auto before = prev.report(r.unit);
    if (!before || before->advance_time == 0) continue;
    if (r.advance_time < before->advance_time) {
      std::ostringstream os;
      os << unit_str(r.unit) << " advanced to id " << cur.id << " at "
         << sim::to_usec(r.advance_time) << "us, before id " << prev.id
         << " at " << sim::to_usec(before->advance_time) << "us";
      out.push_back({"advance-order", cur.id, os.str()});
    }
  }
}

void ConsistencyChecker::check_oracle(
    const std::map<snap::VirtualSid, snap::GlobalSnapshot>& hardware,
    const std::map<snap::VirtualSid, snap::GlobalSnapshot>& ideal,
    std::vector<Violation>& out) {
  for (const auto& [id, hw] : hardware) {
    const auto ideal_it = ideal.find(id);
    if (ideal_it == ideal.end()) continue;
    const auto& id_snap = ideal_it->second;
    for (const auto& r : hw.reports()) {
      if (!r.consistent || r.inferred) continue;
      const auto o = id_snap.report(r.unit);
      if (!o || !o->consistent || o->inferred) continue;
      if (r.local_value != o->local_value ||
          r.channel_value != o->channel_value) {
        std::ostringstream os;
        os << unit_str(r.unit) << " hardware (" << r.local_value << ","
           << r.channel_value << ") != ideal (" << o->local_value << ","
           << o->channel_value << ")";
        out.push_back({"oracle", id, os.str()});
      }
    }
  }
}

}  // namespace speedlight::check
