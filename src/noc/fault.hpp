/// \file
/// Fault-injection campaigns: seeded, reproducible schedules of link faults
/// driven across any Topology.
///
/// A FaultPlan is a flat list of FaultEvents — (link, kind, window, rate)
/// tuples — that the Network builder compiles into per-link
/// router::FaultWindow schedules, each handed to the fault model of the
/// router::Link it names (Link::enableFaults).  Plans are plain data:
/// build them by hand for targeted tests, or generate a whole campaign
/// with makeFaultPlan(), which scatters corruption windows, stuck-ack
/// stalls and link-down outages over the topology's links from a single
/// seed (same topology + same CampaignConfig ⇒ byte-identical plan).
///
/// Fault semantics live in router/link.hpp; the taxonomy and the recovery
/// protocol layered above it are documented in DESIGN.md §9.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/topology.hpp"
#include "router/link.hpp"

namespace rasoc::noc {

/// Kinds of link fault a campaign can schedule (see router::FaultWindow).
using FaultKind = router::FaultWindow::Kind;

/// Human-readable kind name ("corrupt" | "stuck_ack" | "link_down").
std::string_view name(FaultKind kind);

/// One scheduled fault on one directed link: active on cycles
/// [start, start + duration).  `rate` is the per-flit corruption
/// probability (Corrupt only; stall and outage windows ignore it).
struct FaultEvent {
  LinkId link;
  FaultKind kind = FaultKind::Corrupt;
  std::uint64_t start = 0;
  std::uint64_t duration = 0;
  double rate = 1.0;
};

/// "corrupt link(1,2)E [100,200) rate=0.05" — for logs and reports.
std::string describe(const FaultEvent& event);

/// A reproducible fault schedule over a topology's links.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// True when any event targets `link`.
  bool touches(const LinkId& link) const;

  /// The router-level window schedule for one link (possibly empty).
  std::vector<router::FaultWindow> windowsFor(const LinkId& link) const;

  /// Events of a given kind, in plan order.
  std::size_t count(FaultKind kind) const;

  /// Throws std::invalid_argument when an event names a link the topology
  /// does not have, has zero duration, or an out-of-range rate.
  void validate(const Topology& topology) const;
};

/// Knobs for makeFaultPlan().  The defaults describe an empty campaign;
/// raise corruptRate / stallEvents / dropEvents to afflict the network.
struct CampaignConfig {
  /// Cycles the generated windows may cover ([0, horizon)).
  std::uint64_t horizon = 10000;

  /// Per-flit corruption probability on afflicted links (0 = no corruption
  /// windows at all).
  double corruptRate = 0.0;

  /// Fraction of links (Bernoulli per link) given a whole-horizon
  /// corruption window at `corruptRate`.
  double corruptLinkFraction = 1.0;

  /// Total stuck-ack stall windows scattered over random links.
  int stallEvents = 0;

  /// Total link-down outage windows scattered over random links.
  int dropEvents = 0;

  /// Duration bounds (cycles, inclusive) for stall/outage windows.
  std::uint64_t minDuration = 16;
  std::uint64_t maxDuration = 128;

  std::uint64_t seed = 0xfa17;
};

/// Every directed inter-router link of `topology`, in deterministic
/// (node-index, port-index) order.
std::vector<LinkId> allLinks(const Topology& topology);

/// Generates a seeded campaign over the topology's links.  Deterministic:
/// the same topology and config always produce the same plan.
FaultPlan makeFaultPlan(const Topology& topology,
                        const CampaignConfig& config);

}  // namespace rasoc::noc
