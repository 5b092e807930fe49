#include "controller/rib.h"

#include <utility>

namespace flexran::ctrl {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::up: return "up";
    case SessionState::stale: return "stale";
    case SessionState::down: return "down";
    case SessionState::resyncing: return "resyncing";
  }
  return "?";
}

const UeNode* AgentNode::find_ue(lte::Rnti rnti) const {
  for (const auto& [cell_id, cell] : cells) {
    (void)cell_id;
    auto it = cell.ues.find(rnti);
    if (it != cell.ues.end()) return &it->second;
  }
  return nullptr;
}

UeNode* AgentNode::find_ue(lte::Rnti rnti) {
  return const_cast<UeNode*>(std::as_const(*this).find_ue(rnti));
}

UeNode& AgentNode::place_ue(lte::CellId cell_id, lte::Rnti rnti) {
  auto& ues = cells[cell_id].ues;
  if (auto it = ues.find(rnti); it != ues.end()) return it->second;
  UeNode ue;
  if (UeNode* elsewhere = find_ue(rnti)) {
    ue = std::move(*elsewhere);
    erase_ue(rnti);
  }
  ue.rnti = rnti;
  return ues.emplace(rnti, std::move(ue)).first->second;
}

void AgentNode::erase_ue(lte::Rnti rnti) {
  for (auto& [cell_id, cell] : cells) {
    (void)cell_id;
    cell.ues.erase(rnti);
  }
}

std::size_t AgentNode::ue_count() const {
  std::size_t count = 0;
  for (const auto& [cell_id, cell] : cells) {
    (void)cell_id;
    count += cell.ues.size();
  }
  return count;
}

const AgentNode* Rib::find_agent(AgentId id) const {
  auto it = agents_.find(id);
  return it == agents_.end() ? nullptr : &it->second;
}

const UeNode* Rib::find_ue(AgentId id, lte::Rnti rnti) const {
  const AgentNode* agent = find_agent(id);
  return agent == nullptr ? nullptr : agent->find_ue(rnti);
}

AgentNode* Rib::find_agent(AgentId id) {
  return const_cast<AgentNode*>(std::as_const(*this).find_agent(id));
}

std::size_t Rib::ue_count() const {
  std::size_t count = 0;
  for (const auto& [id, agent] : agents_) {
    (void)id;
    count += agent.ue_count();
  }
  return count;
}

std::size_t Rib::approx_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& [id, agent] : agents_) {
    (void)id;
    bytes += sizeof(AgentNode) + agent.name.size();
    for (const auto& cap : agent.capabilities) bytes += cap.size() + sizeof(std::string);
    for (const auto& [cell_id, cell] : agent.cells) {
      (void)cell_id;
      bytes += sizeof(CellNode);
      bytes += cell.ues.size() * (sizeof(UeNode) + 48 /* map node overhead */);
    }
  }
  return bytes;
}

}  // namespace flexran::ctrl
