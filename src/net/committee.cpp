#include "net/committee.h"

#include <algorithm>

#include "common/check.h"
#include "common/trace.h"
#include "net/misbehavior.h"

namespace dprbg {

int Endpoint::n() const { return committee_->n(); }
int Endpoint::t() const { return committee_->t(); }
std::uint32_t Endpoint::committee() const { return committee_->id(); }

Endpoint& Endpoint::instance(std::uint32_t batch) {
  if (batch == 0 || batch == local_stream_) return *this;
  return committee_->instance(local_id_, batch);
}

void Endpoint::send(int to, std::uint32_t tag,
                    std::vector<std::uint8_t> body) {
  if (to < 0 || to >= committee_->n()) return;
  io_->send(committee_->global_id(to), tag, std::move(body));
}

void Endpoint::send_all(std::uint32_t tag,
                        const std::vector<std::uint8_t>& body) {
  for (int to = 0; to < committee_->n(); ++to) send(to, tag, body);
}

void Endpoint::note_decode_failure(int from) {
  if (from < 0 || from >= committee_->n()) return;
  io_->note_decode_failure(committee_->global_id(from));
}

const Inbox& Endpoint::sync() {
  io_->sync();
  std::vector<Msg> msgs = io_->take_inbox();
  // Remap sender ids onto committee-local ranks. The domain roster
  // guarantees every sender is a member; global ids are ascending in
  // local order, so the cluster's (from, tag) sort order is preserved.
  for (Msg& m : msgs) {
    const int local = committee_->local_id(m.from);
    DPRBG_CHECK(local >= 0);
    m.from = local;
  }
  inbox_ = Inbox{std::move(msgs)};
  return inbox_;
}

namespace {

std::vector<int> identity_members(int n) {
  std::vector<int> members(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = i;
  return members;
}

}  // namespace

Committee::Committee(Cluster& cluster, std::vector<int> members, Options opts)
    : cluster_(cluster), members_(std::move(members)), opts_(opts) {
  std::sort(members_.begin(), members_.end());
  DPRBG_CHECK(!members_.empty());
  t_ = opts_.t >= 0 ? opts_.t : cluster_.t();
  DPRBG_CHECK(t_ < n());
  local_of_.assign(static_cast<std::size_t>(cluster_.n()), -1);
  for (int i = 0; i < n(); ++i) {
    const int g = members_[static_cast<std::size_t>(i)];
    DPRBG_CHECK(g >= 0 && g < cluster_.n());
    DPRBG_CHECK(local_of_[static_cast<std::size_t>(g)] == -1);  // distinct
    local_of_[static_cast<std::size_t>(g)] = i;
  }
  cluster_.register_stream_domain(opts_.id, opts_.first_stream,
                                  opts_.stream_count, members_);
}

Committee::Committee(Cluster& cluster)
    : Committee(cluster, identity_members(cluster.n()), Options{}) {}

Endpoint& Committee::endpoint(PartyIo& io) {
  const int local = local_id(io.id());
  DPRBG_CHECK(local >= 0);  // only members have endpoints
  return instance(local, 0);
}

int Committee::global_id(int local) const {
  DPRBG_CHECK(local >= 0 && local < n());
  return members_[static_cast<std::size_t>(local)];
}

int Committee::local_id(int global) const {
  if (global < 0 || global >= static_cast<int>(local_of_.size())) return -1;
  return local_of_[static_cast<std::size_t>(global)];
}

std::uint32_t Committee::global_stream(std::uint32_t local) const {
  DPRBG_CHECK(local < opts_.stream_count);
  return opts_.first_stream + local;
}

void Committee::set_fault_injector(FaultPlan local_plan,
                                   std::uint64_t corruption_seed) {
  cluster_.set_domain_fault_injector(
      opts_.id, std::make_shared<FaultInjector>(
                    local_plan.remapped(members_), corruption_seed));
}

const FaultCounters& Committee::faults() const {
  return cluster_.domain_faults(opts_.id);
}

Cluster::DomainLedger Committee::ledger() const {
  return cluster_.domain_ledger(opts_.id);
}

int Committee::banned_members() const {
  const MisbehaviorManager* mgr = cluster_.misbehavior();
  if (mgr == nullptr) return 0;
  return static_cast<int>(
      std::count_if(members_.begin(), members_.end(),
                    [mgr](int g) { return mgr->banned(g); }));
}

void Committee::set_round_latency_us(int us) {
  cluster_.set_domain_round_latency_us(opts_.id, us);
}

void Committee::begin_drain() {
  RosterState expected = RosterState::kActive;
  if (state_.compare_exchange_strong(expected, RosterState::kDraining,
                                     std::memory_order_acq_rel)) {
    trace_beacon("epoch", opts_.id, "state=draining");
  }
}

void Committee::retire() {
  // Valid from kActive or kDraining; retiring twice is a no-op.
  if (state_.exchange(RosterState::kRetired, std::memory_order_acq_rel) !=
      RosterState::kRetired) {
    trace_beacon("epoch", opts_.id, "state=retired");
  }
}

CommCounters Committee::comm() const {
  std::lock_guard lk(mu_);
  CommCounters total;
  for (const auto& [key, ep] : endpoints_) total += ep->io_->sent();
  return total;
}

Endpoint& Committee::instance(int local_player, std::uint32_t local_stream) {
  DPRBG_CHECK(local_player >= 0 && local_player < n());
  std::lock_guard lk(mu_);
  const auto key = std::make_pair(local_player, local_stream);
  auto it = endpoints_.find(key);
  if (it == endpoints_.end()) {
    PartyIo& io = cluster_.open(global_id(local_player),
                                global_stream(local_stream));
    it = endpoints_
             .emplace(key, std::unique_ptr<Endpoint>(new Endpoint(
                               *this, io, local_player, local_stream)))
             .first;
  }
  return *it->second;
}

}  // namespace dprbg
