#include "net/cluster.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/trace.h"

namespace dprbg {

Cluster::Cluster(int n, int t, std::uint64_t seed)
    : n_(n), t_(t), seed_(seed) {
  DPRBG_CHECK(n >= 1 && t >= 0 && t < n);
  active_.assign(n, 1);
  RoundStream& root = streams_[0];
  root.domain = &default_domain_;
  root.handles.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    root.handles[static_cast<std::size_t>(i)].reset(
        new PartyIo(*this, i, n, t, seed, 0));
  }
}

Cluster::StreamDomain& Cluster::domain_of(std::uint32_t stream) {
  for (auto& d : domains_) {
    if (stream >= d->first_stream &&
        stream - d->first_stream < d->stream_count) {
      return *d;
    }
  }
  return default_domain_;
}

const Cluster::StreamDomain& Cluster::domain_of(std::uint32_t stream) const {
  return const_cast<Cluster*>(this)->domain_of(stream);
}

std::uint32_t Cluster::committee_of(std::uint32_t stream) const {
  return domain_of(stream).committee;
}

StreamLabels Cluster::labels(std::uint32_t stream) const {
  const StreamDomain& dom = domain_of(stream);
  return StreamLabels{stream - dom.first_stream, dom.committee};
}

int Cluster::stream_expected(const RoundStream& st) const {
  const StreamDomain& d = *st.domain;
  if (d.roster.empty()) return expected_;
  int count = 0;
  for (int i = 0; i < n_; ++i) {
    if (d.roster[static_cast<std::size_t>(i)] != 0 && active_[i] != 0) {
      ++count;
    }
  }
  return count;
}

void Cluster::register_stream_domain(std::uint32_t committee,
                                     std::uint32_t first_stream,
                                     std::uint32_t stream_count,
                                     const std::vector<int>& members) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(expected_ == 0);  // never while run() is active
  DPRBG_CHECK(stream_count > 0);
  DPRBG_CHECK(!members.empty());
  auto dom = std::make_unique<StreamDomain>();
  dom->committee = committee;
  dom->first_stream = first_stream;
  dom->stream_count = stream_count;
  dom->roster.assign(static_cast<std::size_t>(n_), 0);
  for (int m : members) {
    DPRBG_CHECK(m >= 0 && m < n_);
    DPRBG_CHECK(dom->roster[static_cast<std::size_t>(m)] == 0);
    dom->roster[static_cast<std::size_t>(m)] = 1;
  }
  for (const auto& d : domains_) {
    DPRBG_CHECK(d->committee != committee);
    const bool disjoint =
        first_stream + stream_count <= d->first_stream ||
        d->first_stream + d->stream_count <= first_stream;
    DPRBG_CHECK(disjoint);
  }
  // Re-point already-opened streams in range (the root stream exists from
  // construction); only legal while the stream is still untouched, since
  // changing a live stream's roster would corrupt its barrier.
  for (auto& [sid, st] : streams_) {
    if (sid >= first_stream && sid - first_stream < stream_count) {
      DPRBG_CHECK(st.exchange_index == 0 && st.waiting == 0);
      st.domain = dom.get();
    }
  }
  domains_.push_back(std::move(dom));
}

void Cluster::set_domain_fault_injector(
    std::uint32_t committee, std::shared_ptr<const FaultInjector> injector) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(expected_ == 0);
  for (auto& d : domains_) {
    if (d->committee == committee) {
      d->injector = std::move(injector);
      return;
    }
  }
  DPRBG_CHECK(committee == 0);  // default domain: use set_fault_injector
  default_domain_.injector = std::move(injector);
}

const FaultCounters& Cluster::domain_faults(std::uint32_t committee) const {
  for (const auto& d : domains_) {
    if (d->committee == committee) return d->faults;
  }
  DPRBG_CHECK(committee == 0);
  return default_domain_.faults;
}

Cluster::DomainLedger Cluster::domain_ledger(std::uint32_t committee) const {
  std::lock_guard lk(mu_);
  const StreamDomain* dom = nullptr;
  for (const auto& d : domains_) {
    if (d->committee == committee) {
      dom = d.get();
      break;
    }
  }
  if (dom == nullptr) {
    DPRBG_CHECK(committee == 0);
    dom = &default_domain_;
  }
  return DomainLedger{dom->faults,        dom->ledger.stale,
                      dom->ledger.foreign, dom->ledger.decode,
                      dom->slow,           dom->ledger.banned};
}

std::uint64_t Cluster::sum_domains(
    std::uint64_t (*field)(const StreamDomain&)) const {
  std::lock_guard lk(mu_);
  std::uint64_t total = field(default_domain_);
  for (const auto& d : domains_) total += field(*d);
  return total;
}

std::uint64_t Cluster::stale_rejections() const {
  return sum_domains([](const StreamDomain& d) { return d.ledger.stale; });
}
std::uint64_t Cluster::foreign_rejections() const {
  return sum_domains([](const StreamDomain& d) { return d.ledger.foreign; });
}
std::uint64_t Cluster::decode_rejections() const {
  return sum_domains([](const StreamDomain& d) { return d.ledger.decode; });
}
std::uint64_t Cluster::slow_envelopes() const {
  return sum_domains([](const StreamDomain& d) { return d.slow; });
}
std::uint64_t Cluster::banned_suppressions() const {
  return sum_domains([](const StreamDomain& d) { return d.ledger.banned; });
}

void Cluster::set_misbehavior_manager(std::shared_ptr<MisbehaviorManager> mgr) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(expected_ == 0);  // never while run() is active
  if (mgr != nullptr) DPRBG_CHECK(mgr->n() == n_);
  misbehavior_ = std::move(mgr);
}

void Cluster::note_decode_failure(const PartyIo& reporter, int from) {
  std::lock_guard lk(mu_);
  StreamDomain& dom = domain_of(reporter.stream());
  if (telemetry_enabled()) ensure_domain_telemetry(dom);
  lockstep_decode_failure(reporter, from, labels(reporter.stream()),
                          misbehavior_.get(), dom.ledger);
}

void Cluster::set_domain_round_latency_us(std::uint32_t committee, int us) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(expected_ == 0);  // never while run() is active
  for (auto& d : domains_) {
    if (d->committee == committee) {
      d->round_latency_us = us;
      return;
    }
  }
  DPRBG_CHECK(committee == 0);
  default_domain_.round_latency_us = us;
}

PartyIo& Cluster::open(int player, std::uint32_t stream) {
  DPRBG_CHECK(player >= 0 && player < n_);
  std::lock_guard lk(mu_);
  RoundStream& st = streams_[stream];
  if (st.handles.empty()) {
    st.id = stream;
    st.domain = &domain_of(stream);
    st.handles.resize(static_cast<std::size_t>(n_));
  }
  std::unique_ptr<PartyIo>& io = st.handles[static_cast<std::size_t>(player)];
  if (io == nullptr) {
    // A player may only open handles on streams whose domain roster
    // includes it — this is what keeps committee traffic inside the
    // committee (the admit-time foreign check is only a backstop).
    DPRBG_CHECK(in_roster(*st.domain, player));
    io.reset(new PartyIo(*this, player, n_, t_, seed_, stream));
  }
  return *io;
}

void Cluster::ensure_domain_telemetry(StreamDomain& dom) {
  // Called with mu_ held and telemetry enabled; the cached pointers stay
  // valid for the process lifetime (registry never destroys instruments).
  if (dom.tel_messages != nullptr) return;
  const std::string l = "committee=" + std::to_string(dom.committee);
  MetricsRegistry& reg = metrics();
  dom.tel_messages = &reg.counter("net_domain_messages_total", l);
  dom.tel_bytes = &reg.counter("net_domain_bytes_total", l);
  dom.ledger.tel_stale = &reg.counter("net_stale_rejections_total", l);
  dom.ledger.tel_foreign = &reg.counter("net_foreign_rejections_total", l);
  dom.tel_faults = &reg.counter("net_fault_effects_total", l);
  dom.ledger.tel_decode = &reg.counter("net_decode_rejections_total", l);
  dom.tel_slow = &reg.counter("net_slow_envelopes_total", l);
  dom.ledger.tel_banned = &reg.counter("net_banned_suppressed_total", l);
}

void Cluster::do_exchange(RoundStream& st) {
  // Runs with mu_ held, all roster threads quiescent on this stream.
  // Collect every staged envelope of the stream's members, account
  // communication, and deliver sorted inboxes. `next` is the cluster's
  // reused routing scratch; clearing up front also drops any leftovers
  // admitted last round for members that never joined (the delivery loop
  // below skips those, exactly as the old fresh-vector code did).
  std::vector<std::vector<Msg>>& next = exchange_scratch_;
  next.resize(static_cast<std::size_t>(n_));
  for (auto& v : next) v.clear();
  const std::uint64_t round = st.exchange_index++;
  const bool trace_on = tracer().enabled();
  const bool tel_on = telemetry_enabled();
  const CommCounters comm_before = comm_;
  StreamDomain& dom = *st.domain;
  if (tel_on) ensure_domain_telemetry(dom);
  // Trace events carry the domain-local batch id; the default domain
  // starts at 0, so unsharded traces are unchanged.
  const StreamLabels at{st.id - dom.first_stream, dom.committee};
  // The injector consulted for this stream: the domain's own, falling
  // back to the cluster-wide one.
  const FaultInjector* inj =
      dom.injector != nullptr ? dom.injector.get() : injector_.get();
  MisbehaviorManager* mgr = misbehavior_.get();
  // Demux guard shared by delayed and fresh traffic: an envelope may
  // only surface in the stream it was sent on, and only between roster
  // members of the stream's domain. PartyIo stamps Msg::batch, the delay
  // queue is per-stream, and handles are roster-guarded at creation, so
  // a mismatch means a wiring bug — reject (count, don't deliver) rather
  // than misdeliver. The gate and its bookkeeping are the transport-
  // shared lockstep_admit (net/lockstep.h).
  auto admit = [&](int to, Msg&& msg) {
    if (lockstep_admit(msg, to, st.id,
                       [&](int p) { return in_roster(dom, p); }, mgr,
                       dom.ledger, round, at)) {
      next[to].push_back(std::move(msg));
    }
  };
  if (inj != nullptr) {
    // Delay-fault arrivals merge in ahead of this round's fresh traffic;
    // the (from, tag) stable sort below interleaves them deterministically.
    // Each merged envelope is, by construction, at least one round late —
    // that is the barrier-stall observation the misbehavior layer scores
    // as kSlowEnvelope, charged to the sender (consistent with the fault
    // model: delays on a link are attributed to the charged player).
    const auto due = st.delayed.find(round);
    if (due != st.delayed.end()) {
      for (auto& d : due->second) {
        ++dom.slow;
        if (tel_on) dom.tel_slow->add(1);
        if (mgr != nullptr) {
          mgr->report(d.msg.from, MisbehaviorSignal::kSlowEnvelope);
        }
        admit(d.to, std::move(d.msg));
      }
      st.delayed.erase(due);
    }
  }
  for (int sender = 0; sender < n_; ++sender) {
    PartyIo* p = st.handles[static_cast<std::size_t>(sender)].get();
    if (p == nullptr || !in_roster(dom, sender)) continue;
    for (auto& env : p->staged_) {
      if (env.to != env.msg.from) {
        ++comm_.messages;
        comm_.bytes +=
            env.msg.body.size() + lockstep_envelope_overhead(env.msg);
      }
      if (inj != nullptr && env.to != env.msg.from) {
        // Self-deliveries are not links and are never faulted.
        const FaultCounters faults_before = faults_;
        const int from = env.msg.from;
        const std::uint32_t tag = env.msg.tag;
        std::vector<Msg> routed;
        inj->route(round, env.to, std::move(env.msg), routed, st.delayed,
                   faults_);
        for (Msg& m : routed) admit(env.to, std::move(m));
        const FaultCounters delta = faults_ - faults_before;
        if (delta.total() != 0) {
          // Every effect is charged to the stream's domain as well, so
          // per-committee fault ledgers sum to faults() exactly.
          dom.faults += delta;
          if (tel_on) dom.tel_faults->add(delta.total());
          if (trace_on) {
            TraceEvent ev;
            ev.kind = TraceEventKind::kPoint;
            ev.protocol = "net";
            ev.phase = "fault";
            ev.player = env.to;
            ev.batch = at.batch;
            ev.committee = dom.committee;
            ev.round_begin = ev.round_end = round;
            ev.faults = delta;
            ev.detail = "from=" + std::to_string(from) +
                        " tag=" + std::to_string(tag);
            tracer().record(std::move(ev));
          }
        }
      } else {
        admit(env.to, std::move(env.msg));
      }
    }
    p->staged_.clear();
  }
  ++comm_.rounds;
  if (tel_on) {
    const CommCounters delivered = comm_ - comm_before;
    dom.tel_messages->add(delivered.messages);
    dom.tel_bytes->add(delivered.bytes);
  }
  if (trace_on) {
    // Round-advance marker, stamped with the exchange's delivered totals.
    TraceEvent ev;
    ev.kind = TraceEventKind::kPoint;
    ev.protocol = "net";
    ev.phase = "round";
    ev.player = -1;
    ev.batch = at.batch;
    ev.committee = dom.committee;
    ev.round_begin = ev.round_end = round;
    ev.comm = comm_ - comm_before;
    tracer().record(std::move(ev));
  }
  for (int i = 0; i < n_; ++i) {
    PartyIo* p = st.handles[static_cast<std::size_t>(i)].get();
    if (p == nullptr) continue;        // never joined this stream
    if (!in_roster(dom, i)) continue;  // outside the domain roster
    // Canonical lockstep order (net/lockstep.h): stable by send order,
    // sorted by (from, tag) — shared with the TCP transport so delivered
    // inboxes cannot drift between backends.
    lockstep_sort_inbox(next[i]);
    p->inbox_ = Inbox{std::move(next[i])};
  }
}

void Cluster::sync(PartyIo& party) {
  unsigned latency = round_latency_us_;
  {
    std::unique_lock lk(mu_);
    RoundStream& st = streams_.at(party.stream_);
    // A handle may only drive a stream whose domain roster includes its
    // player (open() already guards creation; this catches root handles
    // syncing on a stream 0 that a committee claimed).
    DPRBG_CHECK(in_roster(*st.domain, party.id_));
    if (st.domain->round_latency_us >= 0) {
      latency = static_cast<unsigned>(st.domain->round_latency_us);
    }
    ++st.waiting;
    if (st.waiting == stream_expected(st)) {
      do_exchange(st);
      st.waiting = 0;
      ++st.generation;
      cv_.notify_all();
    } else {
      const std::uint64_t gen = st.generation;
      // Barrier wait time as seen by the waiting (non-exchanging)
      // threads — the operator's backpressure signal. Clock reads only
      // when telemetry is on; cv_.wait reacquires mu_, so the cached
      // histogram pointer is read and filled under the lock.
      TelemetryClock::time_point t0;
      const bool tel_on = telemetry_enabled();
      if (tel_on) t0 = TelemetryClock::now();
      cv_.wait(lk, [&] { return st.generation != gen; });
      if (tel_on) {
        if (tel_barrier_wait_ == nullptr) {
          tel_barrier_wait_ = &metrics().histogram("net_barrier_wait_us");
        }
        tel_barrier_wait_->observe(telemetry_elapsed_us(t0));
      }
    }
  }
  if (latency != 0) {
    // One simulated network traversal per round, paid by every member
    // concurrently (outside the lock, so other streams keep exchanging —
    // this is what overlapped batches hide).
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
  }
}

void Cluster::drop(int player) {
  std::unique_lock lk(mu_);
  active_[static_cast<std::size_t>(player)] = 0;
  --expected_;
  if (expected_ <= 0) return;
  // A stream's waiting counts worker threads, not players, so several
  // batch streams can simultaneously reach their (now reduced) expected
  // count when a player drops mid-pipeline (e.g. a crashed player never
  // opens its per-batch handles and every in-flight stream is parked at
  // one short of full). Fire them all: each fired stream's waiting
  // resets to 0 and its waiters cannot re-arrive while mu_ is held, so
  // one pass suffices. Streams whose roster never contained the dropped
  // player keep their expected count and are left alone.
  bool fired = false;
  for (auto& [sid, st] : streams_) {
    if (st.waiting > 0 && st.waiting == stream_expected(st)) {
      do_exchange(st);
      st.waiting = 0;
      ++st.generation;
      fired = true;
    }
  }
  if (fired) cv_.notify_all();
}

void Cluster::publish_comm_telemetry() {
  if (!telemetry_enabled()) return;
  const std::vector<CommCounters> now = per_player_comm();
  if (published_comm_.size() < now.size()) {
    published_comm_.resize(now.size());
  }
  MetricsRegistry& reg = metrics();
  for (std::size_t i = 0; i < now.size(); ++i) {
    const CommCounters delta = now[i] - published_comm_[i];
    const std::string l = "player=" + std::to_string(i);
    reg.counter("net_player_messages_total", l).add(delta.messages);
    reg.counter("net_player_bytes_total", l).add(delta.bytes);
    published_comm_[i] = now[i];
  }
}

std::vector<CommCounters> Cluster::per_player_comm() const {
  std::vector<CommCounters> out(static_cast<std::size_t>(n_));
  for (const auto& [sid, st] : streams_) {
    for (const auto& io : st.handles) {
      if (io != nullptr) out[static_cast<std::size_t>(io->id())] += io->sent();
    }
  }
  return out;
}

void Cluster::run(std::vector<Program> programs) {
  DPRBG_CHECK(static_cast<int>(programs.size()) == n_);
  {
    std::unique_lock lk(mu_);
    expected_ = n_;
    active_.assign(static_cast<std::size_t>(n_), 1);
    for (auto& [sid, st] : streams_) st.waiting = 0;
  }
  per_player_field_ops_.assign(n_, FieldCounters{});
  // Root handles exist from construction and the root record's handle
  // vector never changes, so player threads may read it while other
  // streams open.
  const auto& roots = streams_.at(0).handles;

  std::exception_ptr first_error;
  std::mutex error_mu;

  std::vector<std::thread> threads;
  threads.reserve(n_);
  for (int i = 0; i < n_; ++i) {
    threads.emplace_back([&, i] {
      const FieldCounters before = field_counters();
      try {
        programs[i](*roots[static_cast<std::size_t>(i)]);
      } catch (...) {
        std::lock_guard g(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      per_player_field_ops_[i] = field_counters() - before;
      drop(i);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& ops : per_player_field_ops_) field_ops_ += ops;
  if (first_error) std::rethrow_exception(first_error);
}

void Cluster::run(const Program& honest, const std::vector<int>& faulty,
                  const Program& adversary) {
  std::vector<Program> programs(n_);
  for (int i = 0; i < n_; ++i) programs[i] = honest;
  for (int id : faulty) {
    DPRBG_CHECK(id >= 0 && id < n_);
    programs[id] = adversary ? adversary : [](PartyIo&) {};  // crash fault
  }
  run(std::move(programs));
}

}  // namespace dprbg
