// Crash-forensics CLI: merge flight records into a causal timeline.
//
//   elan_postmortem chaos_flight.seed42.flt           one record
//   elan_postmortem am.flt w0.flt w1.flt --last-ms=500
//
// Loads one or more flight records written by obs::FlightRecorder (normal
// dump() or the async-signal-safe crash path), merges every ring into one
// timeline ordered by (timestamp, global sequence), annotates message
// deliveries with their matching sends (bus message id), renders a
// "last N ms before death" narrative per actor, and diffs the AM/job view
// of the final coordination round against what each worker saw — the
// question a wedged adjustment always comes down to.
//
// Output is a pure function of the record bytes: two runs over the same
// files produce byte-identical text (the determinism test relies on it).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "elan/master.h"
#include "obs/flight.h"
#include "transport/socket_error.h"
#include "transport/socket_transport.h"

namespace {

using elan::obs::FlightEvent;
using elan::obs::FlightEventKind;
using elan::obs::FlightRecord;

FlightEventKind kind_of(const FlightEvent& e) {
  return static_cast<FlightEventKind>(e.kind);
}

/// One field's value: a number, or a name where the number encodes one.
std::string field_text(FlightEventKind kind, int field, std::uint64_t v) {
  switch (kind) {
    case FlightEventKind::kMsgDrop:
      if (field == 1) return v == 0 ? "forced" : v == 1 ? "fault" : "random";
      break;
    case FlightEventKind::kAmPhase:
      if (field < 2) return elan::to_string(static_cast<elan::AmPhase>(v));
      break;
    case FlightEventKind::kLinkState:
      if (field < 2) return elan::transport::to_string(static_cast<elan::transport::LinkState>(v));
      break;
    default:
      break;
  }
  return std::to_string(v);
}

/// The detail, then label=value for each labelled field of the kind's row in
/// the event table (obs::event_info).
std::string describe_args(const FlightEvent& e) {
  const FlightEventKind kind = kind_of(e);
  // The recorded detail is the socket error's name cut to the field's width;
  // the code names it in full.
  std::string out = kind == FlightEventKind::kSockError
                        ? elan::transport::to_string(static_cast<elan::transport::SocketError>(e.a))
                        : e.detail;
  const elan::obs::FlightEventInfo row = elan::obs::event_info(kind);
  const std::uint64_t values[3] = {e.a, e.b, e.c};
  for (int i = 0; i < 3; ++i) {
    if (row.labels[i] == nullptr) continue;
    if (!out.empty()) out += ' ';
    out += row.labels[i];
    out += '=';
    out += field_text(kind, i, values[i]);
  }
  return out;
}

std::string format_time(double ts_us) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%12.6fs", ts_us / 1e6);
  return buf;
}

std::string render_line(const FlightEvent& e,
                        const std::map<std::uint64_t, const FlightEvent*>& sends) {
  char head[96];
  std::snprintf(head, sizeof(head), "%s  %-16s %-18s ", format_time(e.ts_us).c_str(),
                e.actor, elan::obs::to_string(kind_of(e)));
  std::string line = std::string(head) + describe_args(e);
  // Causal edge: a delivery (or a drop, or a malformed payload's rejection)
  // names its matching send.
  const FlightEventKind k = kind_of(e);
  if (k == FlightEventKind::kMsgDeliver || k == FlightEventKind::kMsgDrop ||
      k == FlightEventKind::kMsgToUnknown || k == FlightEventKind::kMsgMalformed) {
    auto it = sends.find(e.a);
    if (it != sends.end() && it->second != &e) {
      char edge[96];
      std::snprintf(edge, sizeof(edge), "  [sent by %s %+.3fms]", it->second->actor,
                    (e.ts_us - it->second->ts_us) / 1e3);
      line += edge;
    }
  }
  return line;
}

/// AM/job vs. worker views of the last coordination round. The job's
/// kRound* events say what the driver believed; kCoordinateSend/kDecision*
/// say what each worker saw. The diff names the workers the round is still
/// waiting on — the usual shape of a wedged adjustment.
void render_final_round(const std::vector<FlightEvent>& merged) {
  const FlightEvent* start = nullptr;
  for (const auto& e : merged) {
    if (kind_of(e) == FlightEventKind::kRoundStart) start = &e;
  }
  if (start == nullptr) {
    std::printf("\nFinal coordination round: none recorded\n");
    return;
  }
  const std::uint64_t iteration = start->a;
  std::set<std::uint64_t> decided;
  bool complete = false;
  std::map<std::uint64_t, int> coordinate_sends;   // worker id -> sends
  std::set<std::uint64_t> decisions_received;      // worker ids
  for (const auto& e : merged) {
    if (e.ts_us < start->ts_us ||
        (e.ts_us == start->ts_us && e.seq < start->seq)) {
      continue;
    }
    switch (kind_of(e)) {
      case FlightEventKind::kRoundDecision:
        if (e.a == iteration) decided.insert(e.b);
        break;
      case FlightEventKind::kRoundComplete:
        if (e.a == iteration) complete = true;
        break;
      case FlightEventKind::kCoordinateSend:
      case FlightEventKind::kCoordinateResend:
        // actor is "w<id>/<job>"; kCoordinateResend's b is the resend
        // count, not the worker id, so the name is the uniform source.
        if (e.a == iteration && e.actor[0] == 'w') {
          ++coordinate_sends[std::strtoull(e.actor + 1, nullptr, 10)];
        }
        break;
      case FlightEventKind::kDecisionRecv:
        // actor is "w<id>/<job>" — the worker id rides in the name.
        if (e.a == iteration && e.actor[0] == 'w') {
          decisions_received.insert(std::strtoull(e.actor + 1, nullptr, 10));
        }
        break;
      default:
        break;
    }
  }
  std::printf("\nFinal coordination round (iteration %llu):\n",
              static_cast<unsigned long long>(iteration));
  std::printf("  job view: started with %llu worker(s) at %s; decisions=%zu; %s\n",
              static_cast<unsigned long long>(start->b),
              format_time(start->ts_us).c_str(), decided.size(),
              complete ? "completed" : "NEVER COMPLETED");
  for (const auto& [wid, sends] : coordinate_sends) {
    const bool heard = decided.count(wid) != 0;
    const bool got_decision = decisions_received.count(wid) != 0;
    std::printf("  w%llu: coordinate sent %d time(s); job heard it: %s; "
                "decision received: %s\n",
                static_cast<unsigned long long>(wid), sends, heard ? "yes" : "NO",
                got_decision ? "yes" : "NO");
  }
  if (!complete) {
    std::printf("  => round wedged: the job is still waiting on");
    bool any = false;
    for (const auto& [wid, sends] : coordinate_sends) {
      (void)sends;
      if (decided.count(wid) == 0) {
        std::printf(" w%llu", static_cast<unsigned long long>(wid));
        any = true;
      }
    }
    if (!any) std::printf(" (no worker — the completion callback never ran)");
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  elan::Flags flags;
  flags.define("last-ms", "2000",
               "per-actor narrative window before the last event, in ms");
  flags.define("max-events", "0", "cap the merged timeline print (0 = all)");

  std::vector<std::string> paths;
  double last_ms = 0;
  std::int64_t max_events = 0;
  try {
    paths = flags.parse(argc, argv);
    last_ms = flags.get_double("last-ms");
    max_events = flags.get_int("max-events");
  } catch (const elan::Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested() || paths.empty()) {
    std::printf("usage: %s <record.flt> [more.flt ...]\n%s", argv[0],
                flags.usage(argv[0]).c_str());
    return flags.help_requested() ? 0 : 2;
  }

  std::vector<FlightEvent> merged;
  for (const auto& path : paths) {
    FlightRecord record;
    try {
      record = elan::obs::read_flight_record(path);
    } catch (const elan::Error& e) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      return 1;
    }
    std::size_t events = 0;
    std::uint64_t total = 0;
    for (const auto& ring : record.rings) {
      events += ring.events.size();
      total += ring.total;
    }
    // Exit or crash comes from the record's origin word, not from its
    // metrics: a live AM or worker registers none and still exits cleanly.
    std::printf("%s: v%u, %s record, %zu ring(s), %zu event(s) (%llu recorded), metrics %s\n",
                path.c_str(), record.version,
                record.origin == elan::obs::FlightOrigin::kCrash ? "crash" : "exit",
                record.rings.size(), events, static_cast<unsigned long long>(total),
                record.metrics_text.empty() ? "absent" : "present");
    const auto m = record.merged();
    merged.insert(merged.end(), m.begin(), m.end());
  }

  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
                     return x.seq < y.seq;
                   });
  if (merged.empty()) {
    std::printf("\nno events recorded\n");
    return 0;
  }

  // send-edge index: bus message id -> the send event (first wins; ids are
  // unique per bus instance).
  std::map<std::uint64_t, const FlightEvent*> sends;
  for (const auto& e : merged) {
    if (kind_of(e) == FlightEventKind::kMsgSend) sends.emplace(e.a, &e);
  }

  std::printf("\nMerged timeline (%zu events, %s .. %s):\n", merged.size(),
              format_time(merged.front().ts_us).c_str(),
              format_time(merged.back().ts_us).c_str());
  std::size_t begin = 0;
  if (max_events > 0 && merged.size() > static_cast<std::size_t>(max_events)) {
    begin = merged.size() - static_cast<std::size_t>(max_events);
    std::printf("  ... %zu earlier event(s) elided (--max-events)\n", begin);
  }
  for (std::size_t i = begin; i < merged.size(); ++i) {
    std::printf("%s\n", render_line(merged[i], sends).c_str());
  }

  // Per-actor narratives over the final window.
  const double death_us = merged.back().ts_us;
  const double window_us = last_ms * 1e3;
  std::map<std::string, std::vector<const FlightEvent*>> actors;
  for (const auto& e : merged) {
    if (e.ts_us + window_us < death_us) continue;
    actors[e.actor].push_back(&e);
  }
  std::printf("\nLast %.0fms before death (t=%s), per actor:\n", last_ms,
              format_time(death_us).c_str());
  for (const auto& [actor, events] : actors) {
    std::printf("-- %s (%zu event(s)):\n", actor.c_str(), events.size());
    for (const auto* e : events) {
      std::printf("%s\n", render_line(*e, sends).c_str());
    }
  }

  render_final_round(merged);
  return 0;
}
