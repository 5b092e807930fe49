#include "agent/vsf.h"

namespace flexran::agent {

std::string vsf_key(std::string_view module, std::string_view vsf,
                    std::string_view implementation) {
  std::string key;
  key.reserve(module.size() + vsf.size() + implementation.size() + 2);
  key.append(module);
  key.push_back('/');
  key.append(vsf);
  key.push_back('/');
  key.append(implementation);
  return key;
}

VsfFactory& VsfFactory::instance() {
  static VsfFactory factory;
  return factory;
}

void VsfFactory::register_implementation(std::string module, std::string vsf,
                                         std::string implementation, Factory factory) {
  factories_[vsf_key(module, vsf, implementation)] = std::move(factory);
}

util::Result<std::unique_ptr<Vsf>> VsfFactory::create(std::string_view module,
                                                      std::string_view vsf,
                                                      std::string_view implementation) const {
  auto it = factories_.find(vsf_key(module, vsf, implementation));
  if (it == factories_.end()) {
    return util::Error::not_found("no VSF implementation " +
                                  vsf_key(module, vsf, implementation));
  }
  return it->second();
}

bool VsfFactory::has(std::string_view module, std::string_view vsf,
                     std::string_view implementation) const {
  return factories_.contains(vsf_key(module, vsf, implementation));
}

util::Status VsfCache::store(const std::string& module, const std::string& vsf,
                             const std::string& implementation) {
  const auto key = vsf_key(module, vsf, implementation);
  auto it = cache_.find(key);
  if (it != cache_.end() && !it->second.quarantined) return {};  // already pushed
  // New push, or a fresh updation of a quarantined implementation: either
  // way instantiate from the factory and start with a clean health record.
  auto instance = VsfFactory::instance().create(module, vsf, implementation);
  if (!instance.ok()) return instance.error();
  cache_[key] = Entry{std::move(instance.value()), 0, false};
  return {};
}

Vsf* VsfCache::get(std::string_view module, std::string_view vsf,
                   std::string_view implementation) const {
  auto it = cache_.find(vsf_key(module, vsf, implementation));
  return it == cache_.end() ? nullptr : it->second.instance.get();
}

std::uint32_t VsfCache::record_failure(std::string_view module, std::string_view vsf,
                                       std::string_view implementation) {
  auto it = cache_.find(vsf_key(module, vsf, implementation));
  if (it == cache_.end()) return 0;
  return ++it->second.consecutive_failures;
}

void VsfCache::record_success(std::string_view module, std::string_view vsf,
                              std::string_view implementation) {
  auto it = cache_.find(vsf_key(module, vsf, implementation));
  if (it != cache_.end()) it->second.consecutive_failures = 0;
}

void VsfCache::quarantine(std::string_view module, std::string_view vsf,
                          std::string_view implementation) {
  auto it = cache_.find(vsf_key(module, vsf, implementation));
  if (it != cache_.end()) it->second.quarantined = true;
}

bool VsfCache::is_quarantined(std::string_view module, std::string_view vsf,
                              std::string_view implementation) const {
  auto it = cache_.find(vsf_key(module, vsf, implementation));
  return it != cache_.end() && it->second.quarantined;
}

std::uint32_t VsfCache::consecutive_failures(std::string_view module, std::string_view vsf,
                                             std::string_view implementation) const {
  auto it = cache_.find(vsf_key(module, vsf, implementation));
  return it == cache_.end() ? 0 : it->second.consecutive_failures;
}

}  // namespace flexran::agent
