#include "net/cluster.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/trace.h"

namespace dprbg {

int PartyIo::n() const { return cluster_.n(); }
int PartyIo::t() const { return cluster_.t(); }

std::uint32_t PartyIo::committee() const {
  return cluster_.committee_of(stream_);
}

PartyIo& PartyIo::instance(std::uint32_t batch) {
  if (batch == 0 || batch == stream_) return *this;
  return cluster_.instance_io(id_, batch);
}

void PartyIo::send(int to, std::uint32_t tag,
                   std::vector<std::uint8_t> body) {
  if (to < 0 || to >= cluster_.n()) return;
  if (to != id_) {
    const std::uint64_t overhead =
        lockstep_envelope_overhead(id_, tag, stream_, body.size());
    ++sent_.messages;
    sent_.bytes += body.size() + overhead;
    if (tracer().enabled()) {
      // Net events carry the domain-local batch id (global stream minus
      // the domain's base) plus the committee id, matching the ids the
      // protocol spans above them use. The default domain starts at 0,
      // so unsharded traces are unchanged.
      const auto& dom = cluster_.domain_of(stream_);
      TraceEvent ev;
      ev.kind = TraceEventKind::kPoint;
      ev.protocol = "net";
      ev.phase = "send";
      ev.player = id_;
      ev.batch = stream_ - dom.first_stream;
      ev.committee = dom.committee;
      ev.round_begin = ev.round_end = sent_.rounds;
      ev.comm.messages = 1;
      ev.comm.bytes = body.size() + overhead;
      ev.detail = "to=" + std::to_string(to) +
                  " tag=" + std::to_string(tag);
      tracer().record(std::move(ev));
    }
  }
  Msg msg;
  msg.from = id_;
  msg.tag = tag;
  msg.batch = stream_;
  msg.body = std::move(body);
  staged_.push_back(Envelope{to, std::move(msg)});
}

void PartyIo::send_all(std::uint32_t tag,
                       const std::vector<std::uint8_t>& body) {
  for (int to = 0; to < cluster_.n(); ++to) {
    send(to, tag, body);
  }
}

const Inbox& PartyIo::sync() {
  cluster_.arrive_and_exchange(*this);
  ++sent_.rounds;
  return inbox_;
}

void PartyIo::note_decode_failure(int from) {
  cluster_.note_decode_failure(stream_, id_, from);
}

Cluster::Cluster(int n, int t, std::uint64_t seed)
    : n_(n), t_(t), seed_(seed) {
  DPRBG_CHECK(n >= 1 && t >= 0 && t < n);
  active_.assign(n, 1);
  parties_.reserve(n);
  RoundStream& root = streams_[0];
  root.id = 0;
  root.members.assign(n, nullptr);
  root.domain = &default_domain_;
  for (int i = 0; i < n; ++i) {
    parties_.push_back(
        std::unique_ptr<PartyIo>(new PartyIo(*this, i, seed, 0)));
    root.members[i] = parties_.back().get();
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
  return DomainLedger{dom->faults, dom->stale,  dom->foreign,
                      dom->decode, dom->slow, dom->banned};
}

void Cluster::set_misbehavior_manager(std::shared_ptr<MisbehaviorManager> mgr) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(expected_ == 0);  // never while run() is active
  if (mgr != nullptr) DPRBG_CHECK(mgr->n() == n_);
  misbehavior_ = std::move(mgr);
}

void Cluster::note_decode_failure(std::uint32_t stream, int reporter,
                                  int from) {
  if (from < 0 || from >= n_ || from == reporter) return;
  std::lock_guard lk(mu_);
  StreamDomain& dom = domain_of(stream);
  ++decode_rejections_;
  ++dom.decode;
  if (telemetry_enabled()) {
    ensure_domain_telemetry(dom);
    dom.tel_decode->add(1);
  }
  if (tracer().enabled()) {
    // Round stamp: the stream's exchange count (the inbox being decoded
    // was delivered by the previous exchange).
    std::uint64_t round = 0;
    const auto it = streams_.find(stream);
    if (it != streams_.end()) round = it->second.exchange_index;
    trace_point("net", "decode_reject", reporter, round,
                "from=" + std::to_string(from), stream - dom.first_stream,
                dom.committee);
  }
  if (misbehavior_ != nullptr) {
    // Receiver-attributed: carries the reporter so the policy's decode
    // reporter quorum (>= t+1 distinct witnesses before scoring) can
    // discount a lone Byzantine framer.
    misbehavior_->report_decode(from, reporter);
  }
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

PartyIo& Cluster::instance_io(int player, std::uint32_t batch) {
  // Stream ids are capped at 0xFFFF on both transports. The cap bounds
  // the per-stream state a peer can make a node allocate (the TCP reader
  // refuses frames beyond it) and is the space committee domains are
  // strided over (net/committee.h). Every nonzero-stream envelope is
  // staged via a handle created here, so checking at this choke point
  // covers all traffic. Batch ids grow monotonically without reuse
  // (DPrbg never recycles them), so a long-running instance hits this
  // loudly instead of running past what a TCP peer would accept.
  DPRBG_CHECK(batch <= 0xFFFF);
  std::lock_guard lk(mu_);
  StreamDomain& dom = domain_of(batch);
  // A player may only open handles on streams whose domain roster
  // includes it — this is what keeps committee traffic inside the
  // committee (the admit()-time foreign check is only a backstop).
  DPRBG_CHECK(in_roster(dom, player));
  const auto key = std::make_pair(player, batch);
  auto it = instances_.find(key);
  if (it == instances_.end()) {
    it = instances_
             .emplace(key, std::unique_ptr<PartyIo>(
                               new PartyIo(*this, player, seed_, batch)))
             .first;
    RoundStream& st = streams_[batch];
    st.id = batch;
    st.domain = &dom;
    if (st.members.empty()) st.members.assign(n_, nullptr);
    st.members[player] = it->second.get();
  }
  return *it->second;
}

PartyIo& Cluster::handle(int player, std::uint32_t stream) {
  DPRBG_CHECK(player >= 0 && player < n_);
  if (stream == 0) return *parties_[static_cast<std::size_t>(player)];
  return instance_io(player, stream);
}

void Cluster::ensure_domain_telemetry(StreamDomain& dom) {
  // Called with mu_ held and telemetry enabled; the cached pointers stay
  // valid for the process lifetime (registry never destroys instruments).
  if (dom.tel_messages != nullptr) return;
  const std::string l = "committee=" + std::to_string(dom.committee);
  MetricsRegistry& reg = metrics();
  dom.tel_messages = &reg.counter("net_domain_messages_total", l);
  dom.tel_bytes = &reg.counter("net_domain_bytes_total", l);
  dom.tel_stale = &reg.counter("net_stale_rejections_total", l);
  dom.tel_foreign = &reg.counter("net_foreign_rejections_total", l);
  dom.tel_faults = &reg.counter("net_fault_effects_total", l);
  dom.tel_decode = &reg.counter("net_decode_rejections_total", l);
  dom.tel_slow = &reg.counter("net_slow_envelopes_total", l);
  dom.tel_banned = &reg.counter("net_banned_suppressed_total", l);
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
  const std::uint32_t local_batch = st.id - dom.first_stream;
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
  // than misdeliver. The decision itself (order of the gates, the
  // self-delivery ban exemption) is the transport-shared
  // classify_envelope (net/lockstep.h); this lambda adds the simulated
  // cluster's ledger/telemetry/trace bookkeeping per verdict.
  auto admit = [&](int to, Msg&& msg) {
    const AdmitVerdict verdict = classify_envelope(
        msg, to, st.id, [&](int p) { return in_roster(dom, p); }, mgr);
    if (const auto sig = signal_for(verdict); sig && mgr != nullptr) {
      mgr->report(msg.from, *sig);
    }
    switch (verdict) {
      case AdmitVerdict::kStale:
        ++stale_rejections_;
        ++dom.stale;
        if (tel_on) dom.tel_stale->add(1);
        if (trace_on) {
          trace_point("net", "stale", to, round,
                      "from=" + std::to_string(msg.from) +
                          " batch=" + std::to_string(msg.batch),
                      local_batch, dom.committee);
        }
        return;
      case AdmitVerdict::kForeign:
        ++foreign_rejections_;
        ++dom.foreign;
        if (tel_on) dom.tel_foreign->add(1);
        if (trace_on) {
          trace_point("net", "foreign", to, round,
                      "from=" + std::to_string(msg.from), local_batch,
                      dom.committee);
        }
        return;
      case AdmitVerdict::kBanned:
        // Ban suppression is the last gate before delivery: the envelope
        // has already been charged to comm and the fault ledgers (so
        // every reconciliation still balances), it just never reaches an
        // inbox.
        ++banned_suppressions_;
        ++dom.banned;
        if (tel_on) dom.tel_banned->add(1);
        mgr->note_suppressed(msg.from);
        if (trace_on) {
          trace_point("net", "banned", to, round,
                      "from=" + std::to_string(msg.from), local_batch,
                      dom.committee);
        }
        return;
      case AdmitVerdict::kDeliver:
        break;
    }
    next[to].push_back(std::move(msg));
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
        ++slow_envelopes_;
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
    PartyIo* p = st.members[sender];
    if (p == nullptr || !in_roster(dom, sender)) continue;
    for (auto& env : p->staged_buffer()) {
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
            ev.batch = local_batch;
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
    p->staged_buffer().clear();
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
    ev.batch = local_batch;
    ev.committee = dom.committee;
    ev.round_begin = ev.round_end = round;
    ev.comm = comm_ - comm_before;
    tracer().record(std::move(ev));
  }
  for (int i = 0; i < n_; ++i) {
    if (st.members[i] == nullptr) continue;  // never joined this stream
    if (!in_roster(dom, i)) continue;        // outside the domain roster
    // Canonical lockstep order (net/lockstep.h): stable by send order,
    // sorted by (from, tag) — shared with the TCP transport so delivered
    // inboxes cannot drift between backends.
    lockstep_sort_inbox(next[i]);
    st.members[i]->deliver(Inbox{std::move(next[i])});
  }
}

void Cluster::arrive_and_exchange(PartyIo& party) {
  unsigned latency = round_latency_us_;
  {
    std::unique_lock lk(mu_);
    RoundStream& st = streams_.at(party.stream_);
    // A handle may only drive a stream whose domain roster includes its
    // player (instance_io already guards creation; this catches root
    // handles syncing on a stream 0 that a committee claimed).
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
  std::vector<CommCounters> out;
  out.reserve(parties_.size());
  for (const auto& p : parties_) out.push_back(p->sent());
  for (const auto& [key, io] : instances_) out[key.first] += io->sent();
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

  std::exception_ptr first_error;
  std::mutex error_mu;

  std::vector<std::thread> threads;
  threads.reserve(n_);
  for (int i = 0; i < n_; ++i) {
    threads.emplace_back([&, i] {
      const FieldCounters before = field_counters();
      try {
        programs[i](*parties_[i]);
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
