#include "util/env.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace modelardb {
namespace {

std::string ErrnoMessage(const std::string& context, int err) {
  return context + ": " + std::strerror(err);
}

// POSIX append-only log: write(2) with EINTR/short-write retry, fdatasync
// as the durability barrier.
class PosixWritableLog final : public WritableLog {
 public:
  explicit PosixWritableLog(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableLog() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const uint8_t* data, size_t size) override {
    if (fd_ < 0) return Status::IOError("append on closed log " + path_);
    while (size > 0) {
      ssize_t n = ::write(fd_, data, size);
      if (n < 0) {
        if (errno == EINTR) continue;  // Interrupted before any byte: retry.
        return Status::IOError(ErrnoMessage("write " + path_, errno));
      }
      // Short write (disk full races, signals): continue from where the
      // kernel stopped rather than report success for half a record.
      data += n;
      size -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError("sync on closed log " + path_);
    int rc;
#if defined(__linux__)
    do {
      rc = ::fdatasync(fd_);
    } while (rc < 0 && errno == EINTR);
#else
    do {
      rc = ::fsync(fd_);
    } while (rc < 0 && errno == EINTR);
#endif
    if (rc < 0) return Status::IOError(ErrnoMessage("fdatasync " + path_, errno));
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    // close(2) is not retried on EINTR: POSIX leaves the fd state
    // unspecified and Linux guarantees it is released either way.
    if (::close(fd) < 0 && errno != EINTR) {
      return Status::IOError(ErrnoMessage("close " + path_, errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

// POSIX positional-write file: pwrite(2) with EINTR/short-write retry,
// fdatasync barrier. The slab commit protocol (slab_file.cc) interleaves
// WriteAt and Sync to order data < table < root on the device.
class PosixRandomRWFile final : public RandomRWFile {
 public:
  explicit PosixRandomRWFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixRandomRWFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status WriteAt(uint64_t offset, const uint8_t* data, size_t size) override {
    if (fd_ < 0) return Status::IOError("write on closed file " + path_);
    while (size > 0) {
      ssize_t n = ::pwrite(fd_, data, size, static_cast<off_t>(offset));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("pwrite " + path_, errno));
      }
      data += n;
      size -= static_cast<size_t>(n);
      offset += static_cast<uint64_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError("sync on closed file " + path_);
    int rc;
#if defined(__linux__)
    do {
      rc = ::fdatasync(fd_);
    } while (rc < 0 && errno == EINTR);
#else
    do {
      rc = ::fsync(fd_);
    } while (rc < 0 && errno == EINTR);
#endif
    if (rc < 0) return Status::IOError(ErrnoMessage("fdatasync " + path_, errno));
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) < 0 && errno != EINTR) {
      return Status::IOError(ErrnoMessage("close " + path_, errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixMmapFile final : public MmapFile {
 public:
  PosixMmapFile(void* base, size_t size, bool writable, std::string path)
      : base_(base), size_(size), writable_(writable), path_(std::move(path)) {}

  ~PosixMmapFile() override {
    if (base_ != nullptr && size_ > 0) ::munmap(base_, size_);
  }

  const uint8_t* data() const override {
    return static_cast<const uint8_t*>(base_);
  }

  size_t size() const override { return size_; }

  Status Sync(size_t offset, size_t length) override {
    if (!writable_) {
      return Status::InvalidArgument("msync on read-only mapping " + path_);
    }
    if (length == 0 || offset >= size_) return Status::OK();
    if (length > size_ - offset) length = size_ - offset;
    size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    size_t begin = offset & ~(page - 1);
    size_t end = offset + length;
    if (::msync(static_cast<uint8_t*>(base_) + begin, end - begin, MS_SYNC) <
        0) {
      return Status::IOError(ErrnoMessage("msync " + path_, errno));
    }
    return Status::OK();
  }

 private:
  void* base_;
  size_t size_;
  bool writable_;
  std::string path_;
};

class PosixEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableLog>> NewWritableLog(
      const std::string& path) override {
    int fd;
    do {
      fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path, errno));
    return std::unique_ptr<WritableLog>(
        std::make_unique<PosixWritableLog>(fd, path));
  }

  Result<std::unique_ptr<RandomRWFile>> NewRandomRWFile(
      const std::string& path) override {
    int fd;
    do {
      fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path, errno));
    return std::unique_ptr<RandomRWFile>(
        std::make_unique<PosixRandomRWFile>(fd, path));
  }

  Result<std::unique_ptr<MmapFile>> NewMmapFile(const std::string& path,
                                                bool writable) override {
    int flags = writable ? O_RDWR : O_RDONLY;
    int fd;
    do {
      fd = ::open(path.c_str(), flags | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path, errno));
    struct stat st;
    if (::fstat(fd, &st) < 0) {
      int err = errno;
      ::close(fd);
      return Status::IOError(ErrnoMessage("fstat " + path, err));
    }
    size_t size = static_cast<size_t>(st.st_size);
    void* base = nullptr;
    if (size > 0) {
      int prot = PROT_READ | (writable ? PROT_WRITE : 0);
      base = ::mmap(nullptr, size, prot, MAP_SHARED, fd, 0);
      if (base == MAP_FAILED) {
        int err = errno;
        ::close(fd);
        return Status::IOError(ErrnoMessage("mmap " + path, err));
      }
    }
    // The mapping keeps the pages alive; the descriptor is not needed.
    ::close(fd);
    return std::unique_ptr<MmapFile>(
        std::make_unique<PosixMmapFile>(base, size, writable, path));
  }

  Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) override {
    int fd;
    do {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path, errno));
    std::vector<uint8_t> out;
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      out.reserve(static_cast<size_t>(st.st_size));
    }
    uint8_t buf[1 << 16];
    while (true) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        int err = errno;
        ::close(fd);
        return Status::IOError(ErrnoMessage("read " + path, err));
      }
      if (n == 0) break;
      out.insert(out.end(), buf, buf + n);
    }
    ::close(fd);
    return out;
  }

  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset) override {
    int fd;
    do {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path, errno));
    std::vector<uint8_t> out;
    struct stat st;
    if (::fstat(fd, &st) == 0 &&
        static_cast<uint64_t>(st.st_size) > offset) {
      out.reserve(static_cast<size_t>(st.st_size - offset));
    }
    uint8_t buf[1 << 16];
    off_t pos = static_cast<off_t>(offset);
    while (true) {
      ssize_t n = ::pread(fd, buf, sizeof(buf), pos);
      if (n < 0) {
        if (errno == EINTR) continue;
        int err = errno;
        ::close(fd);
        return Status::IOError(ErrnoMessage("pread " + path, err));
      }
      if (n == 0) break;
      out.insert(out.end(), buf, buf + n);
      pos += n;
    }
    ::close(fd);
    return out;
  }

  Result<int64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) < 0) {
      return Status::IOError(ErrnoMessage("stat " + path, errno));
    }
    return static_cast<int64_t>(st.st_size);
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status TruncateFile(const std::string& path, int64_t size) override {
    int rc;
    do {
      rc = ::truncate(path.c_str(), static_cast<off_t>(size));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      return Status::IOError(ErrnoMessage("truncate " + path, errno));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) < 0 && errno != ENOENT) {
      return Status::IOError(ErrnoMessage("unlink " + path, errno));
    }
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

}  // namespace modelardb
