// A minimal prototxt-flavored configuration format:
//
//   train {
//     epochs: 5
//     lr: 0.02          # comments run to end of line
//   }
//   layer { type: conv out: 20 kernel: 5 }
//   layer { type: relu }
//
// Scalars are `key: value` pairs (repeatable); blocks are
// `name { ... }` (repeatable, nestable). Values are stored as strings
// with typed accessors.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace qnn::config {

class ConfigNode {
 public:
  // --- scalar fields ----------------------------------------------------
  bool has(const std::string& key) const;
  // Returns the value of `key`, or throws if absent / repeated.
  const std::string& get(const std::string& key) const;
  // Returns the value of `key` or `fallback` if absent.
  std::string get_or(const std::string& key,
                     const std::string& fallback) const;
  std::int64_t get_int(const std::string& key) const;
  std::int64_t get_int_or(const std::string& key,
                          std::int64_t fallback) const;
  double get_double(const std::string& key) const;
  double get_double_or(const std::string& key, double fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;
  // All values of a repeated scalar key (possibly empty).
  const std::vector<std::string>& get_all(const std::string& key) const;

  // --- block fields ------------------------------------------------------
  bool has_block(const std::string& name) const;
  // The unique block `name`; throws if absent or repeated.
  const ConfigNode& block(const std::string& name) const;
  // All blocks `name`, in order (possibly empty).
  const std::vector<ConfigNode>& blocks(const std::string& name) const;

  // --- construction (used by the parser and by tests) --------------------
  void add_value(const std::string& key, std::string value);
  ConfigNode& add_block(const std::string& name);

 private:
  std::map<std::string, std::vector<std::string>> values_;
  std::map<std::string, std::vector<ConfigNode>> children_;
};

// Parses the text format; throws CheckError on malformed input with
// "<source_name>:<line>" context (load_config passes the file path as
// the source name, so errors read "lenet_fixed8.cfg:12: ...").
ConfigNode parse_config(const std::string& text,
                        const std::string& source_name = "<config>");

// Reads and parses a file.
ConfigNode load_config(const std::string& path);

}  // namespace qnn::config
