// Minimal YAML subset parser, sufficient for FlexRAN policy-reconfiguration
// messages (paper Fig. 3): nested maps via 2+-space indentation, block
// sequences ("- item"), inline sequences ("[a, b, c]"), the empty map "{}",
// and scalar values. Anchors, multi-line scalars, and other flow maps are
// intentionally unsupported. A line the parser cannot place in the tree is
// an error that names the line, never silently dropped.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace flexran::util {

class YamlNode {
 public:
  enum class Kind { scalar, map, sequence };

  YamlNode() : kind_(Kind::scalar) {}
  static YamlNode scalar(std::string value);
  static YamlNode map();
  static YamlNode sequence();

  Kind kind() const { return kind_; }
  bool is_scalar() const { return kind_ == Kind::scalar; }
  bool is_map() const { return kind_ == Kind::map; }
  bool is_sequence() const { return kind_ == Kind::sequence; }

  // Scalar access.
  const std::string& as_string() const { return scalar_; }
  Result<long long> as_int() const;
  Result<double> as_double() const;

  // Map access. Keys preserve insertion order.
  bool has(std::string_view key) const;
  const YamlNode* find(std::string_view key) const;
  YamlNode& at(const std::string& key);
  const std::vector<std::pair<std::string, YamlNode>>& entries() const { return entries_; }
  YamlNode& insert(std::string key, YamlNode value);

  // Sequence access.
  const std::vector<YamlNode>& items() const { return items_; }
  YamlNode& append(YamlNode value);

  /// Structural equality: same kind, scalar text, entries and items.
  bool operator==(const YamlNode&) const = default;

  /// Serializes back to YAML text. For every tree parse_yaml returns,
  /// parse_yaml(dump()) gives an equal tree back; scalars the parser would
  /// read differently are written quoted. Only tests call it.
  std::string dump(int indent = 0) const;

 private:
  Kind kind_;
  std::string scalar_;
  std::vector<std::pair<std::string, YamlNode>> entries_;  // map
  std::vector<YamlNode> items_;                            // sequence
};

/// Parses a document; the root is always a map.
Result<YamlNode> parse_yaml(std::string_view text);

/// `text` as a scalar that parse_yaml reads back unchanged after "key: "
/// (or after "- " when `item`): bare when it would, double-quoted when not.
/// dump() writes every scalar this way.
std::string scalar_text(const std::string& text, bool item = false);

}  // namespace flexran::util
