// Minimal Result<T> error-handling vocabulary type (std::expected is not
// available in the target toolchain's libstdc++ for all build modes, so we
// carry a small local equivalent).
//
// MGFS uses Result for *expected, recoverable* failures: permission denied,
// unknown path, unauthorized cluster, disk full. Programming errors are
// asserted (MGFS_ASSERT) instead.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace mgfs {

#define MGFS_ASSERT(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "MGFS_ASSERT failed at %s:%d: %s\n", __FILE__,   \
                   __LINE__, msg);                                          \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

/// Error codes cover the user-visible failure surface of the library.
enum class Errc {
  ok = 0,
  not_found,
  exists,
  permission_denied,
  not_authorized,      // multi-cluster: cluster not granted by mmauth
  not_authenticated,   // handshake failed / bad signature
  read_only,           // FS exported read-only to this cluster
  no_space,
  io_error,            // disk / RAID failure surfaced to caller
  unavailable,         // node down / no NSD server reachable
  invalid_argument,
  not_a_directory,
  is_a_directory,
  not_empty,
  stale,               // configuration generation mismatch
  timed_out,
  gated,               // paused by a manager takeover rebuild (a manager
                       // op's admission gate or the NSD write gate):
                       // retry; the server is alive, so no accusation
};

/// Human-readable code name (stable; used in logs and test assertions).
constexpr const char* errc_name(Errc e) {
  switch (e) {
    case Errc::ok: return "ok";
    case Errc::not_found: return "not_found";
    case Errc::exists: return "exists";
    case Errc::permission_denied: return "permission_denied";
    case Errc::not_authorized: return "not_authorized";
    case Errc::not_authenticated: return "not_authenticated";
    case Errc::read_only: return "read_only";
    case Errc::no_space: return "no_space";
    case Errc::io_error: return "io_error";
    case Errc::unavailable: return "unavailable";
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::not_a_directory: return "not_a_directory";
    case Errc::is_a_directory: return "is_a_directory";
    case Errc::not_empty: return "not_empty";
    case Errc::stale: return "stale";
    case Errc::timed_out: return "timed_out";
    case Errc::gated: return "gated";
  }
  return "unknown";
}

struct Error {
  Errc code = Errc::ok;
  std::string detail;

  std::string to_string() const {
    std::string s = errc_name(code);
    if (!detail.empty()) {
      s += ": ";
      s += detail;
    }
    return s;
  }
};

inline Error err(Errc c, std::string detail = {}) {
  return Error{c, std::move(detail)};
}

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}           // NOLINT(google-explicit-constructor)
  Result(Error e) : v_(std::move(e)) {}               // NOLINT(google-explicit-constructor)
  Result(Errc c, std::string detail = {}) : v_(Error{c, std::move(detail)}) {}

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    MGFS_ASSERT(ok(), "Result::value() on error");
    return std::get<T>(v_);
  }
  T& value() & {
    MGFS_ASSERT(ok(), "Result::value() on error");
    return std::get<T>(v_);
  }
  T&& take() && {
    MGFS_ASSERT(ok(), "Result::take() on error");
    return std::get<T>(std::move(v_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  const Error& error() const {
    MGFS_ASSERT(!ok(), "Result::error() on success");
    return std::get<Error>(v_);
  }
  Errc code() const { return ok() ? Errc::ok : error().code; }

 private:
  std::variant<T, Error> v_;
};

/// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error e) : e_(std::move(e)) {}               // NOLINT(google-explicit-constructor)
  Status(Errc c, std::string detail = {}) : e_(Error{c, std::move(detail)}) {}

  bool ok() const { return e_.code == Errc::ok; }
  explicit operator bool() const { return ok(); }
  const Error& error() const { return e_; }
  Errc code() const { return e_.code; }
  std::string to_string() const { return ok() ? "ok" : e_.to_string(); }

 private:
  Error e_{};
};

}  // namespace mgfs
