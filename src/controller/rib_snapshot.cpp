#include "controller/rib_snapshot.h"

namespace flexran::ctrl {

const AgentNode* RibSnapshot::find_agent(AgentId id) const {
  auto it = agents_.find(id);
  return it == agents_.end() ? nullptr : it->second.get();
}

const UeNode* RibSnapshot::find_ue(AgentId id, lte::Rnti rnti) const {
  const AgentNode* agent = find_agent(id);
  return agent == nullptr ? nullptr : agent->find_ue(rnti);
}

std::size_t RibSnapshot::ue_count() const {
  std::size_t count = 0;
  for (const auto& [id, agent] : agents_) {
    (void)id;
    count += agent->ue_count();
  }
  return count;
}

std::shared_ptr<const RibSnapshot> RibSnapshot::capture(const Rib& rib, std::uint64_t version) {
  auto snapshot = std::make_shared<RibSnapshot>();
  snapshot->version_ = version;
  for (const auto& [id, agent] : rib.agents()) {
    snapshot->agents_.emplace(id, std::make_shared<const AgentNode>(agent));
  }
  return snapshot;
}

std::shared_ptr<const RibSnapshot> RibSnapshot::compose(
    const std::vector<std::shared_ptr<const RibSnapshot>>& shards) {
  auto composite = std::make_shared<RibSnapshot>();
  for (const auto& shard : shards) {
    if (shard == nullptr) continue;
    composite->version_ += shard->version();
    if (shard->overload_state() > composite->overload_state_) {
      composite->overload_state_ = shard->overload_state();
    }
    composite->recovering_ = composite->recovering_ || shard->recovering();
    for (const auto& [id, agent] : shard->agents_) {
      composite->agents_.emplace(id, agent);  // shares the subtree
    }
  }
  return composite;
}

SnapshotStore::SnapshotStore() : current_(std::make_shared<const RibSnapshot>()) {}

std::shared_ptr<const RibSnapshot> SnapshotStore::publish(const Rib& rib,
                                                          const std::set<AgentId>& dirty,
                                                          bool structure_changed,
                                                          OverloadState overload,
                                                          bool recovering) {
  auto previous = current();
  if (dirty.empty() && !structure_changed && previous->overload_state() == overload &&
      previous->recovering() == recovering) {
    return previous;
  }

  auto next = std::make_shared<RibSnapshot>();
  next->version_ = previous->version() + 1;
  next->overload_state_ = overload;
  next->recovering_ = recovering;
  for (const auto& [id, agent] : rib.agents()) {
    auto it = previous->agents_.find(id);
    if (it != previous->agents_.end() && !dirty.contains(id)) {
      next->agents_.emplace(id, it->second);  // unchanged subtree: share it
    } else {
      next->agents_.emplace(id, std::make_shared<const AgentNode>(agent));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(next);
  return current_;
}

}  // namespace flexran::ctrl
