#include "dlblint/lexer.hpp"

#include <cctype>

namespace dlb::lint {
namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Operators kept fused because a rule distinguishes them from their parts
/// (`&&` rvalue-ref vs `&` capture, `->` member access, `::` qualification,
/// `==`/`!=` null checks, `+=`/`-=`/`*=`/`/=`/`%=` accumulation for the
/// float-order rule, `<=>` so the spaceship never reads as `<=` `>`).
/// Everything else is a single character; notably `<` and `>` are never
/// fused so template scans can count depth.
bool fused_pair(char a, char b) {
  return (a == ':' && b == ':') || (a == '-' && b == '>') || (a == '&' && b == '&') ||
         (a == '|' && b == '|') || (a == '=' && b == '=') || (a == '!' && b == '=') ||
         (a == '<' && b == '=') || (a == '>' && b == '=') || (a == '+' && b == '=') ||
         (a == '-' && b == '=') || (a == '*' && b == '=') || (a == '/' && b == '=') ||
         (a == '%' && b == '=');
}

/// Length of the raw-string opener prefix ending in `R` when a raw string
/// literal starts at `i` (`R"`, `u8R"`, `uR"`, `UR"`, `LR"`), else 0.
std::size_t raw_prefix_len(const std::string& src, std::size_t i) {
  const std::size_t n = src.size();
  auto starts = [&](const char* p, std::size_t len) {
    return i + len < n && src.compare(i, len, p) == 0 && src[i + len] == '"';
  };
  if (starts("u8R", 3)) return 3;
  if (starts("uR", 2) || starts("UR", 2) || starts("LR", 2)) return 2;
  if (starts("R", 1)) return 1;
  return 0;
}

}  // namespace

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto advance_line = [&](char c) {
    if (c == '\n') {
      ++line;
      at_line_start = true;
    }
  };
  auto finish = [&](Token& t, std::size_t end) {
    t.length = end - t.offset;
    out.push_back(std::move(t));
  };

  while (i < n) {
    const char c = src[i];

    if (c == '\n' || c == '\r' || c == ' ' || c == '\t' || c == '\f' || c == '\v') {
      advance_line(c);
      ++i;
      continue;
    }

    // Preprocessor directive: '#' first on its line; join backslash splices.
    if (c == '#' && at_line_start) {
      Token t{TokenKind::kPreprocessor, "", line, i, 0};
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && (src[i + 1] == '\n' || src[i + 1] == '\r')) {
          i += 2;
          if (i <= n && src[i - 1] == '\r' && i < n && src[i] == '\n') ++i;
          ++line;
          t.text.push_back(' ');
          continue;
        }
        if (src[i] == '\n') break;
        t.text.push_back(src[i]);
        ++i;
      }
      finish(t, i);
      continue;
    }
    at_line_start = false;

    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      Token t{TokenKind::kComment, "", line, i, 0};
      i += 2;
      while (i < n && src[i] != '\n') t.text.push_back(src[i++]);
      finish(t, i);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      Token t{TokenKind::kComment, "", line, i, 0};
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        advance_line(src[i]);
        t.text.push_back(src[i++]);
      }
      i = i + 1 < n ? i + 2 : n;
      at_line_start = false;
      finish(t, i);
      continue;
    }

    // Raw string literal, with optional encoding prefix:
    // [u8|u|U|L]R"delim( ... )delim".
    if (const std::size_t pre = raw_prefix_len(src, i); pre != 0) {
      std::size_t j = i + pre + 1;
      std::string delim;
      while (j < n && src[j] != '(' && src[j] != '\n' && delim.size() <= 16)
        delim.push_back(src[j++]);
      if (j < n && src[j] == '(') {
        Token t{TokenKind::kString, "", line, i, 0};
        const std::string close = ")" + delim + "\"";
        std::size_t k = j + 1;
        while (k < n && src.compare(k, close.size(), close) != 0) {
          advance_line(src[k]);
          t.text.push_back(src[k++]);
        }
        at_line_start = false;
        const std::size_t end = k < n ? k + close.size() : n;
        finish(t, end);
        i = end;
        continue;
      }
      // '"' after the prefix that is not a raw string opener: fall through;
      // the prefix lexes as an identifier and the quote as a plain string.
    }

    if (c == '"' || c == '\'') {
      const char quote = c;
      Token t{quote == '"' ? TokenKind::kString : TokenKind::kChar, "", line, i, 0};
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          t.text.push_back(src[i]);
          t.text.push_back(src[i + 1]);
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;  // unterminated: stop at EOL, stay robust
        t.text.push_back(src[i++]);
      }
      if (i < n && src[i] == quote) ++i;
      finish(t, i);
      continue;
    }

    if (ident_start(c)) {
      Token t{TokenKind::kIdentifier, "", line, i, 0};
      while (i < n && ident_char(src[i])) t.text.push_back(src[i++]);
      // Encoding-prefixed string like u8"..." — re-lex the literal part.
      if (i < n && src[i] == '"' &&
          (t.text == "u8" || t.text == "u" || t.text == "U" || t.text == "L")) {
        at_line_start = false;
        finish(t, i);
        continue;  // prefix token kept; quote handled next iteration
      }
      finish(t, i);
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      Token t{TokenKind::kNumber, "", line, i, 0};
      while (i < n) {
        const char d = src[i];
        // Digit separators (1'000'000) ride the literal only when a digit (or
        // another separator-eligible literal char) follows; a trailing quote
        // belongs to the next token (e.g. `1'x'` is 1 then the char 'x').
        if (d == '\'') {
          if (i + 1 < n && ident_char(src[i + 1]) && src[i + 1] != '\'') {
            t.text.push_back(d);
            ++i;
            continue;
          }
          break;
        }
        if (ident_char(d) || d == '.') {
          t.text.push_back(d);
          ++i;
          // exponent sign: 1e+9, 0x1p-3
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && i < n &&
              (src[i] == '+' || src[i] == '-')) {
            t.text.push_back(src[i++]);
          }
          continue;
        }
        break;
      }
      finish(t, i);
      continue;
    }

    // Punctuation, fusing `<=>` and the handful of pairs the rules care about.
    Token t{TokenKind::kPunct, std::string(1, c), line, i, 0};
    if (c == '<' && i + 2 < n && src[i + 1] == '=' && src[i + 2] == '>') {
      t.text = "<=>";
      i += 3;
    } else if (i + 1 < n && fused_pair(c, src[i + 1])) {
      t.text.push_back(src[i + 1]);
      i += 2;
    } else {
      ++i;
    }
    finish(t, i);
  }
  return out;
}

std::vector<Token> significant(const std::vector<Token>& tokens) {
  std::vector<Token> out;
  out.reserve(tokens.size());
  for (const Token& t : tokens) {
    if (t.kind != TokenKind::kComment && t.kind != TokenKind::kPreprocessor) out.push_back(t);
  }
  return out;
}

}  // namespace dlb::lint
