#include "stream/libsvm_io.h"

#include <sys/wait.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace wmsketch {

namespace {

// Splits off the next whitespace-delimited token from `s`; empty view at end.
std::string_view NextToken(std::string_view& s) {
  size_t start = 0;
  while (start < s.size() && (s[start] == ' ' || s[start] == '\t')) ++start;
  size_t end = start;
  while (end < s.size() && s[end] != ' ' && s[end] != '\t') ++end;
  std::string_view tok = s.substr(start, end - start);
  s.remove_prefix(end);
  return tok;
}

bool EndsWithGz(const std::string& path) {
  return path.size() > 3 && path.compare(path.size() - 3, 3, ".gz") == 0;
}

// Single-quotes `s` for /bin/sh so the popen("gzip -cd ...") passthrough is
// safe for any path the caller hands us.
std::string ShellQuote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

}  // namespace

Result<Example> ParseLibsvmLine(std::string_view line, bool one_based) {
  // Strip trailing CR/comment.
  if (const size_t hash = line.find('#'); hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) line.remove_suffix(1);

  std::string_view rest = line;
  const std::string_view label_tok = NextToken(rest);
  if (label_tok.empty()) return Status::InvalidArgument("empty line");

  int8_t y;
  if (label_tok == "+1" || label_tok == "1") {
    y = 1;
  } else if (label_tok == "-1" || label_tok == "0") {
    y = -1;
  } else {
    return Status::InvalidArgument("unrecognized label '" + std::string(label_tok) + "'");
  }

  std::vector<uint32_t> indices;
  std::vector<float> values;
  bool have_prev = false;
  uint64_t prev = 0;
  for (std::string_view tok = NextToken(rest); !tok.empty(); tok = NextToken(rest)) {
    const size_t colon = tok.find(':');
    if (colon == std::string_view::npos || colon == 0 || colon + 1 >= tok.size()) {
      return Status::InvalidArgument("malformed feature '" + std::string(tok) + "'");
    }
    uint64_t idx = 0;
    const std::string_view idx_sv = tok.substr(0, colon);
    auto [iptr, ierr] = std::from_chars(idx_sv.data(), idx_sv.data() + idx_sv.size(), idx);
    if (ierr != std::errc() || iptr != idx_sv.data() + idx_sv.size()) {
      return Status::InvalidArgument("bad feature index '" + std::string(idx_sv) + "'");
    }
    if (one_based) {
      if (idx == 0) return Status::InvalidArgument("index 0 in one-based file");
      idx -= 1;
    }
    if (idx > 0xffffffffULL) {
      return Status::OutOfRange("feature index " + std::to_string(idx) + " exceeds 32 bits");
    }
    // Enforce the strictly-increasing index contract here, at the offending
    // token, rather than silently repairing with FromUnsorted: a duplicate or
    // out-of-order index in a real dataset export is almost always a
    // generator bug upstream, and "sort and sum" would mask it while also
    // changing every downstream hash plan.
    if (have_prev && idx <= prev) {
      return Status::InvalidArgument(
          std::string(idx == prev ? "duplicate" : "out-of-order") + " feature index in '" +
          std::string(tok) + "' (indices must be strictly increasing)");
    }
    have_prev = true;
    prev = idx;
    // std::from_chars for float is available but strtof handles exponents the
    // same; keep from_chars for locale independence.
    const std::string_view val_sv = tok.substr(colon + 1);
    float val = 0.0f;
    auto [vptr, verr] = std::from_chars(val_sv.data(), val_sv.data() + val_sv.size(), val);
    if (verr != std::errc() || vptr != val_sv.data() + val_sv.size()) {
      return Status::InvalidArgument("bad feature value '" + std::string(val_sv) + "'");
    }
    if (!std::isfinite(val)) {
      return Status::InvalidArgument("non-finite feature value '" + std::string(val_sv) + "'");
    }
    // Explicit zeros are legal in the wild (some exporters emit the full
    // active set) but carry no information for a sparse learner; drop them
    // after they have participated in the monotonicity check.
    if (val != 0.0f) {
      indices.push_back(static_cast<uint32_t>(idx));
      values.push_back(val);
    }
  }

  return Example{SparseVector(std::move(indices), std::move(values)), y};
}

namespace {

// Parses one already-read line in the context of a file scan: skips blanks
// and comments, prefixes parse failures with path:lineno.
Status ConsumeLine(const std::string& line, const std::string& path, size_t lineno,
                   bool one_based, std::vector<Example>& out) {
  const size_t first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || line[first] == '#') return Status::OK();
  Result<Example> ex = ParseLibsvmLine(line, one_based);
  if (!ex.ok()) {
    return Status(ex.status().code(),
                  path + ":" + std::to_string(lineno) + ": " + ex.status().message());
  }
  out.push_back(std::move(ex).value());
  return Status::OK();
}

// Streams a gzip-compressed file through `gzip -cd` (no zlib dependency; the
// decompressor is already on every machine that produced the .gz). The
// decompressor's exit status is checked on close: a truncated or corrupt .gz
// makes gzip exit nonzero *after* emitting whatever prefix it could decode,
// so trusting EOF alone would silently accept a partial dataset as complete.
Result<std::vector<Example>> ReadLibsvmGzFile(const std::string& path, bool one_based) {
  const std::string cmd = "gzip -cd -- " + ShellQuote(path);
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return Status::IOError("cannot run '" + cmd + "'");
  std::vector<Example> out;
  Status st = Status::OK();
  size_t lineno = 0;
  char* buf = nullptr;
  size_t cap = 0;
  ssize_t n;
  while (st.ok() && (n = getline(&buf, &cap, pipe)) != -1) {
    ++lineno;
    if (n > 0 && buf[n - 1] == '\n') --n;
    st = ConsumeLine(std::string(buf, static_cast<size_t>(n)), path, lineno, one_based, out);
  }
  free(buf);
  const bool pipe_error = ferror(pipe) != 0;
  const int rc = pclose(pipe);
  if (!st.ok()) return st;
  if (pipe_error) return Status::IOError("read error on gzip pipe for '" + path + "'");
  if (rc == -1) {
    return Status::IOError("cannot collect gzip exit status for '" + path + "': " +
                           std::strerror(errno));
  }
  if (rc != 0) {
    // Decode the wait status so a truncated stream (exit 1), a usage error
    // (exit 2), and a signaled decompressor are all distinguishable.
    std::string detail;
    if (WIFEXITED(rc)) {
      detail = "exit status " + std::to_string(WEXITSTATUS(rc));
    } else if (WIFSIGNALED(rc)) {
      detail = "killed by signal " + std::to_string(WTERMSIG(rc));
    } else {
      detail = "wait status " + std::to_string(rc);
    }
    return Status::IOError("gzip -cd failed for '" + path + "' (" + detail +
                           "); stream may be truncated or corrupt");
  }
  return out;
}

}  // namespace

Result<std::vector<Example>> ReadLibsvmFile(const std::string& path, bool one_based) {
  if (EndsWithGz(path)) return ReadLibsvmGzFile(path, one_based);
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::vector<Example> out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    WMS_RETURN_NOT_OK(ConsumeLine(line, path, lineno, one_based, out));
  }
  return out;
}

std::string FormatLibsvmLine(const Example& ex) {
  std::ostringstream os;
  // max_digits10 significant digits read back as the same float; the
  // stream's default 6 would round 1234567.8 to 1.23457e+06.
  os.precision(std::numeric_limits<float>::max_digits10);
  os << (ex.y > 0 ? "+1" : "-1");
  for (size_t i = 0; i < ex.x.nnz(); ++i) {
    // Widened first: index 2^32 - 1 is written as 4294967296, not 0.
    os << ' ' << (uint64_t{ex.x.index(i)} + 1) << ':' << ex.x.value(i);
  }
  return os.str();
}

Status WriteLibsvmFile(const std::string& path, const std::vector<Example>& examples) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  for (const Example& ex : examples) {
    out << FormatLibsvmLine(ex) << '\n';
  }
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace wmsketch
