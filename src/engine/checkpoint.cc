#include "engine/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/failpoint.h"

namespace wmsketch {

namespace fs = std::filesystem;

namespace {

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".wms";
constexpr const char* kTmpSuffix = ".wms.tmp";

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

// Parses "ckpt-<seq>.wms"; returns 0 when the name is not a checkpoint.
uint64_t SequenceOf(const std::string& filename) {
  const size_t prefix_len = std::strlen(kPrefix);
  const size_t suffix_len = std::strlen(kSuffix);
  if (filename.size() <= prefix_len + suffix_len) return 0;
  if (filename.compare(0, prefix_len, kPrefix) != 0) return 0;
  if (filename.compare(filename.size() - suffix_len, suffix_len, kSuffix) != 0) return 0;
  const std::string digits =
      filename.substr(prefix_len, filename.size() - prefix_len - suffix_len);
  if (digits.empty()) return 0;
  uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

// write(2) until done, retrying short kernel writes and EINTR.
Status WriteAllFd(int fd, const char* data, size_t n, const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("checkpoint: write failed for", path);
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return ErrnoError("checkpoint: cannot open directory", dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return ErrnoError("checkpoint: directory fsync failed for", dir);
  return Status::OK();
}

// Committed checkpoints in `dir`, as (sequence, filename) sorted ascending.
std::vector<std::pair<uint64_t, std::string>> ScanCheckpoints(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const uint64_t seq = SequenceOf(name);
    if (seq != 0) found.emplace_back(seq, name);
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

Result<Checkpointer> Checkpointer::Open(const std::string& dir, size_t keep_last) {
  if (dir.empty()) return Status::InvalidArgument("checkpoint: empty directory path");
  if (keep_last == 0) return Status::InvalidArgument("checkpoint: keep_last must be >= 1");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("checkpoint: cannot create directory '" + dir +
                           "': " + ec.message());
  }
  // Sweep temp files left by a crash between temp write and rename; they were
  // never committed, so deleting them is always safe.
  uint64_t max_seq = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > std::strlen(kTmpSuffix) &&
        name.compare(name.size() - std::strlen(kTmpSuffix), std::strlen(kTmpSuffix),
                     kTmpSuffix) == 0) {
      fs::remove(entry.path(), ec);
      continue;
    }
    max_seq = std::max(max_seq, SequenceOf(name));
  }
  return Checkpointer(dir, keep_last, max_seq + 1);
}

Status Checkpointer::Write(const Learner& learner) {
  std::ostringstream buf(std::ios::binary);
  WMS_RETURN_NOT_OK(SaveLearner(learner, buf));
  return CommitBytes(std::move(buf).str());
}

Status Checkpointer::WriteClassifier(Method method, const BudgetedClassifier& impl) {
  std::ostringstream buf(std::ios::binary);
  WMS_RETURN_NOT_OK(SaveClassifier(method, impl, buf));
  return CommitBytes(std::move(buf).str());
}

Status Checkpointer::CommitBytes(const std::string& bytes) {
  const std::string final_path =
      dir_ + "/" + kPrefix + std::to_string(next_seq_) + kSuffix;
  const std::string tmp_path = final_path + ".tmp";

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("checkpoint: cannot create", tmp_path);

  // The payload is written in two halves so an armed "checkpoint:mid_payload"
  // crash leaves a genuinely torn temp file on disk.
  Status st = WriteAllFd(fd, bytes.data(), bytes.size() / 2, tmp_path);
  if (st.ok()) {
    switch (WMS_FAILPOINT("checkpoint:mid_payload")) {
      case failpoint::Action::kOff:
        break;
      default:
        st = Status::IOError("checkpoint: injected fault mid payload");
        break;
    }
  }
  if (st.ok()) {
    st = WriteAllFd(fd, bytes.data() + bytes.size() / 2, bytes.size() - bytes.size() / 2,
                    tmp_path);
  }
  if (st.ok() && WMS_FAILPOINT("checkpoint:fsync") != failpoint::Action::kOff) {
    st = Status::IOError("checkpoint: injected fsync fault");
  }
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("checkpoint: fsync failed for", tmp_path);
  ::close(fd);
  if (st.ok() && WMS_FAILPOINT("checkpoint:before_rename") != failpoint::Action::kOff) {
    st = Status::IOError("checkpoint: injected fault before rename");
  }
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }

  // rename(2) is the atomic commit point: before it the previous checkpoint
  // set is intact, after it the new checkpoint is fully visible.
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const Status rename_st = ErrnoError("checkpoint: rename failed for", tmp_path);
    ::unlink(tmp_path.c_str());
    return rename_st;
  }
  WMS_FAILPOINT("checkpoint:after_rename");  // crash-only site: commit landed
  WMS_RETURN_NOT_OK(FsyncDir(dir_));

  ++next_seq_;
  Prune();
  return Status::OK();
}

void Checkpointer::Prune() const {
  auto found = ScanCheckpoints(dir_);
  if (found.size() <= keep_last_) return;
  std::error_code ec;
  for (size_t i = 0; i + keep_last_ < found.size(); ++i) {
    fs::remove(fs::path(dir_) / found[i].second, ec);
  }
}

Result<Learner> Checkpointer::RecoverLatest(const LearnerOptions& opts,
                                            std::vector<std::string>* skipped) const {
  return RecoverFrom(dir_, opts, skipped);
}

Result<Learner> Checkpointer::RecoverFrom(const std::string& dir,
                                          const LearnerOptions& opts,
                                          std::vector<std::string>* skipped) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("checkpoint: no such directory '" + dir + "'");
  }
  auto found = ScanCheckpoints(dir);
  // Newest first: a torn or corrupt newest checkpoint falls back to the one
  // before it instead of failing recovery outright.
  for (auto it = found.rbegin(); it != found.rend(); ++it) {
    const std::string path = dir + "/" + it->second;
    Status read_st = Status::OK();
    if (WMS_FAILPOINT("recover:read_error") != failpoint::Action::kOff) {
      read_st = Status::IOError("checkpoint: injected recovery read fault");
    }
    if (read_st.ok()) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        read_st = ErrnoError("checkpoint: cannot open", path);
      } else {
        Result<Learner> restored = LoadLearner(in, opts);
        if (restored.ok()) return restored;
        read_st = restored.status();
      }
    }
    if (skipped != nullptr) {
      skipped->push_back(it->second + ": " + read_st.ToString());
    }
  }
  return Status::NotFound("checkpoint: no valid checkpoint in '" + dir + "'");
}

// -------------------------------------------------- Learner integration
//
// Defined here rather than in api/learner.cc so the api layer carries no
// dependency on the checkpoint machinery (mirroring the serving.cc pattern);
// api/learner.h only forward-declares Checkpointer.

Status Learner::EnableCheckpointing(const CheckpointSpec& spec) {
  WMS_ASSIGN_OR_RETURN(Checkpointer cp, Checkpointer::Open(spec.dir, spec.keep_last));
  checkpointer_ = std::make_shared<Checkpointer>(std::move(cp));
  checkpoint_every_ = spec.every;
  next_checkpoint_steps_ =
      checkpoint_every_ == 0 ? 0 : impl_->steps() + checkpoint_every_;
  last_checkpoint_status_ = Status::OK();
  return Status::OK();
}

Status Learner::CheckpointNow() {
  if (checkpointer_ == nullptr) {
    return Status::FailedPrecondition("checkpointing not enabled on this learner");
  }
  last_checkpoint_status_ = checkpointer_->Write(*this);
  if (checkpoint_every_ > 0) {
    next_checkpoint_steps_ = impl_->steps() + checkpoint_every_;
  }
  return last_checkpoint_status_;
}

void Learner::MaybeCheckpoint() {
  if (checkpoint_every_ == 0) return;
  if (impl_->steps() < next_checkpoint_steps_) return;
  last_checkpoint_status_ = checkpointer_->Write(*this);
  next_checkpoint_steps_ = impl_->steps() + checkpoint_every_;
}

}  // namespace wmsketch
