#include "net/lockstep.h"

#include <string>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "net/endpoint.h"

namespace dprbg {

static_assert(NetEndpoint<PartyIo>);

PartyIo::PartyIo(LockstepTransport& net, int id, int n, int t,
                 std::uint64_t seed, std::uint32_t stream)
    : net_(net),
      id_(id),
      n_(n),
      t_(t),
      stream_(stream),
      rng_(seed, lockstep_rng_stream(id, stream)) {
  DPRBG_CHECK(stream <= kMaxStreamId);
}

PartyIo& PartyIo::instance(std::uint32_t batch) {
  if (batch == 0 || batch == stream_) return *this;
  return net_.open(id_, batch);
}

void PartyIo::send(int to, std::uint32_t tag,
                   std::vector<std::uint8_t> body) {
  if (to < 0 || to >= n_) return;
  if (to != id_) {
    const std::uint64_t overhead =
        lockstep_envelope_overhead(id_, tag, stream_, body.size());
    ++sent_.messages;
    sent_.bytes += body.size() + overhead;
    if (tracer().enabled()) {
      // Net events carry the stream's trace labels (domain-local batch id
      // and committee), matching the ids the protocol spans above them
      // use.
      const StreamLabels labels = net_.labels(stream_);
      TraceEvent ev;
      ev.kind = TraceEventKind::kPoint;
      ev.protocol = "net";
      ev.phase = "send";
      ev.player = id_;
      ev.batch = labels.batch;
      ev.committee = labels.committee;
      ev.round_begin = ev.round_end = sent_.rounds;
      ev.comm.messages = 1;
      ev.comm.bytes = body.size() + overhead;
      ev.detail = "to=" + std::to_string(to) + " tag=" + std::to_string(tag);
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
  for (int to = 0; to < n_; ++to) send(to, tag, body);
}

const Inbox& PartyIo::sync() {
  net_.sync(*this);
  ++sent_.rounds;
  return inbox_;
}

void PartyIo::note_decode_failure(int from) {
  if (from < 0 || from >= n_ || from == id_) return;
  net_.note_decode_failure(*this, from);
}

void lockstep_reject(AdmitVerdict verdict, const Msg& msg, int to,
                     std::uint64_t round, StreamLabels labels,
                     MisbehaviorManager* mgr, AdmitLedger& ledger) {
  std::uint64_t* count = nullptr;
  Counter* tel = nullptr;
  switch (verdict) {
    case AdmitVerdict::kStale:
      if (mgr != nullptr) mgr->report(msg.from, MisbehaviorSignal::kStaleFlood);
      count = &ledger.stale;
      tel = ledger.tel_stale;
      break;
    case AdmitVerdict::kForeign:
      if (mgr != nullptr) {
        mgr->report(msg.from, MisbehaviorSignal::kForeignTraffic);
      }
      count = &ledger.foreign;
      tel = ledger.tel_foreign;
      break;
    case AdmitVerdict::kBanned:
      // Ban suppression is the last gate before delivery: the envelope
      // has already been charged to comm and the fault ledgers (so every
      // reconciliation still balances), it just never reaches an inbox.
      count = &ledger.banned;
      tel = ledger.tel_banned;
      break;
    case AdmitVerdict::kDeliver:
      return;
  }
  ++*count;
  if (tel != nullptr) tel->add(1);
  if (verdict == AdmitVerdict::kBanned) mgr->note_suppressed(msg.from);
  if (tracer().enabled()) {
    std::string detail = "from=" + std::to_string(msg.from);
    if (verdict == AdmitVerdict::kStale) {
      detail += " batch=" + std::to_string(msg.batch);
    }
    trace_point("net", to_string(verdict), to, round, std::move(detail),
                labels.batch, labels.committee);
  }
}

void lockstep_decode_failure(const PartyIo& reporter, int from,
                             StreamLabels labels, MisbehaviorManager* mgr,
                             AdmitLedger& ledger) {
  ++ledger.decode;
  if (ledger.tel_decode != nullptr) ledger.tel_decode->add(1);
  if (tracer().enabled()) {
    // The inbox being decoded was delivered by the handle's last sync().
    trace_point("net", "decode_reject", reporter.id(), reporter.rounds(),
                "from=" + std::to_string(from), labels.batch,
                labels.committee);
  }
  if (mgr != nullptr) mgr->report_decode(from, reporter.id());
}

}  // namespace dprbg
