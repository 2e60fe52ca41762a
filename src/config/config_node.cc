#include "config/config_node.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/fileio.h"

namespace qnn::config {
namespace {

struct Token {
  enum Kind { kIdent, kColonValue, kOpenBrace, kCloseBrace, kEnd } kind;
  std::string text;
  int line;
};

// Tokenizer: identifiers, ':' followed by a value (to end of
// whitespace), braces. '#' comments to end of line.
class Lexer {
 public:
  Lexer(const std::string& text, const std::string& source)
      : text_(text), source_(source), pos_(utf8_bom_offset(text)) {}

  // "<source>:<line>" prefix for parse errors.
  std::string where(int line) const {
    return source_ + ":" + std::to_string(line);
  }
  std::string where() const { return where(line_); }

  Token next() {
    skip_space_and_comments();
    if (pos_ >= text_.size()) return {Token::kEnd, "", line_};
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      return {Token::kOpenBrace, "{", line_};
    }
    if (c == '}') {
      ++pos_;
      return {Token::kCloseBrace, "}", line_};
    }
    QNN_CHECK_MSG(std::isalpha(static_cast<unsigned char>(c)) || c == '_',
                  where() << ": config parse error: unexpected '" << c
                          << '\'');
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_'))
      ++pos_;
    std::string ident = text_.substr(start, pos_ - start);
    skip_inline_space();
    if (pos_ < text_.size() && text_[pos_] == ':') {
      ++pos_;
      skip_inline_space();
      // A value is one whitespace-delimited token (numbers, idents,
      // shapes like 1x28x28), so several pairs may share a line.
      const std::size_t vstart = pos_;
      while (pos_ < text_.size() &&
             !std::isspace(static_cast<unsigned char>(text_[pos_])) &&
             text_[pos_] != '#' && text_[pos_] != '}')
        ++pos_;
      std::string value = text_.substr(vstart, pos_ - vstart);
      QNN_CHECK_MSG(!value.empty(),
                    where() << ": config parse error: empty value for '"
                            << ident << '\'');
      return {Token::kColonValue, ident + "\n" + value, line_};
    }
    return {Token::kIdent, std::move(ident), line_};
  }

 private:
  void skip_inline_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t'))
      ++pos_;
  }
  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  const std::string source_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

void parse_block(Lexer& lexer, ConfigNode& node, bool top_level) {
  for (;;) {
    const Token t = lexer.next();
    switch (t.kind) {
      case Token::kEnd:
        QNN_CHECK_MSG(top_level,
                      lexer.where(t.line)
                          << ": config parse error: unexpected end of "
                             "input inside a block");
        return;
      case Token::kCloseBrace:
        QNN_CHECK_MSG(!top_level, lexer.where(t.line)
                                      << ": config parse error: stray '}'");
        return;
      case Token::kColonValue: {
        const auto split = t.text.find('\n');
        node.add_value(t.text.substr(0, split), t.text.substr(split + 1));
        break;
      }
      case Token::kIdent: {
        const Token open = lexer.next();
        QNN_CHECK_MSG(open.kind == Token::kOpenBrace,
                      lexer.where(open.line)
                          << ": config parse error: expected '{' after '"
                          << t.text << '\'');
        parse_block(lexer, node.add_block(t.text), /*top_level=*/false);
        break;
      }
      case Token::kOpenBrace:
        QNN_CHECK_MSG(false, lexer.where(t.line)
                                 << ": config parse error: unexpected '{'");
    }
  }
}

}  // namespace

bool ConfigNode::has(const std::string& key) const {
  const auto it = values_.find(key);
  return it != values_.end() && !it->second.empty();
}

const std::string& ConfigNode::get(const std::string& key) const {
  const auto it = values_.find(key);
  QNN_CHECK_MSG(it != values_.end(), "missing config key '" << key << '\'');
  QNN_CHECK_MSG(it->second.size() == 1,
                "config key '" << key << "' is repeated");
  return it->second.front();
}

std::string ConfigNode::get_or(const std::string& key,
                               const std::string& fallback) const {
  return has(key) ? get(key) : fallback;
}

std::int64_t ConfigNode::get_int(const std::string& key) const {
  const std::string& v = get(key);
  std::size_t consumed = 0;
  const std::int64_t out = std::stoll(v, &consumed);
  QNN_CHECK_MSG(consumed == v.size(),
                "config key '" << key << "': '" << v << "' is not an int");
  return out;
}

std::int64_t ConfigNode::get_int_or(const std::string& key,
                                    std::int64_t fallback) const {
  return has(key) ? get_int(key) : fallback;
}

double ConfigNode::get_double(const std::string& key) const {
  const std::string& v = get(key);
  std::size_t consumed = 0;
  const double out = std::stod(v, &consumed);
  QNN_CHECK_MSG(consumed == v.size(), "config key '"
                                          << key << "': '" << v
                                          << "' is not a number");
  return out;
}

double ConfigNode::get_double_or(const std::string& key,
                                 double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

bool ConfigNode::get_bool_or(const std::string& key, bool fallback) const {
  if (!has(key)) return fallback;
  const std::string& v = get(key);
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  QNN_CHECK_MSG(false, "config key '" << key << "': '" << v
                                      << "' is not a bool");
  return fallback;
}

const std::vector<std::string>& ConfigNode::get_all(
    const std::string& key) const {
  static const std::vector<std::string> kEmpty;
  const auto it = values_.find(key);
  return it == values_.end() ? kEmpty : it->second;
}

bool ConfigNode::has_block(const std::string& name) const {
  const auto it = children_.find(name);
  return it != children_.end() && !it->second.empty();
}

const ConfigNode& ConfigNode::block(const std::string& name) const {
  const auto it = children_.find(name);
  QNN_CHECK_MSG(it != children_.end() && !it->second.empty(),
                "missing config block '" << name << '\'');
  QNN_CHECK_MSG(it->second.size() == 1,
                "config block '" << name << "' is repeated");
  return it->second.front();
}

const std::vector<ConfigNode>& ConfigNode::blocks(
    const std::string& name) const {
  static const std::vector<ConfigNode> kEmpty;
  const auto it = children_.find(name);
  return it == children_.end() ? kEmpty : it->second;
}

void ConfigNode::add_value(const std::string& key, std::string value) {
  values_[key].push_back(std::move(value));
}

ConfigNode& ConfigNode::add_block(const std::string& name) {
  children_[name].emplace_back();
  return children_[name].back();
}

ConfigNode parse_config(const std::string& text,
                        const std::string& source_name) {
  ConfigNode root;
  Lexer lexer(text, source_name);
  parse_block(lexer, root, /*top_level=*/true);
  return root;
}

ConfigNode load_config(const std::string& path) {
  std::ifstream in(path);
  QNN_CHECK_MSG(in.good(), "cannot open config " << path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_config(ss.str(), path);
}

}  // namespace qnn::config
