// Cluster-to-cluster trust: the mmauth model of GPFS 2.3 GA (paper §6.2).
//
// Each cluster owns an RSA keypair. Administrators exchange *public*
// keys out of band (the paper: "via an out-of-band mechanism such as
// e-mail"), then the exporting cluster's admin runs `mmauth add` to
// admit the remote cluster and `mmauth grant` to expose specific file
// systems read-only or read-write (the PTF 2 per-filesystem control).
// Mounting performs a mutual challenge–response: each side proves
// possession of its private key; no remote root shell is involved —
// the redesign the authors contributed.
//
// cipherList selects what the resulting session protects:
//   AUTHONLY — authentication only, data in the clear (GPFS default)
//   encrypt  — all filesystem traffic encrypted (per-byte CPU cost on
//              both ends; visible in bench/tab_auth_modes)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "auth/rsa.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace mgfs::auth {

enum class CipherList {
  none,      // pre-2.3 behaviour: no cluster authentication at all
  authonly,  // RSA mutual authentication, cleartext data
  encrypt,   // RSA mutual authentication + encrypted traffic
};

constexpr const char* cipher_name(CipherList c) {
  switch (c) {
    case CipherList::none: return "none";
    case CipherList::authonly: return "AUTHONLY";
    case CipherList::encrypt: return "encrypt";
  }
  return "?";
}

/// CPU seconds per byte charged to each endpoint for payload protection.
/// 2005-era software AES on an IA64 NSD server moved ~150 MB/s per CPU.
constexpr double cipher_cpu_s_per_byte(CipherList c) {
  return c == CipherList::encrypt ? 1.0 / 150e6 : 0.0;
}

enum class AccessMode { none, read_only, read_write };

constexpr const char* access_name(AccessMode m) {
  switch (m) {
    case AccessMode::none: return "none";
    case AccessMode::read_only: return "ro";
    case AccessMode::read_write: return "rw";
  }
  return "?";
}

/// The exporting cluster's view of who may connect and mount what.
class TrustStore {
 public:
  /// `mmauth add <cluster> -k <keyfile>`: admit a remote cluster's key.
  void add_cluster(const std::string& cluster, const PublicKey& key);
  /// `mmauth delete`: forget a cluster (revokes all its grants).
  void remove_cluster(const std::string& cluster);
  bool knows(const std::string& cluster) const;
  Result<PublicKey> key_of(const std::string& cluster) const;

  /// `mmauth grant <cluster> -f <fs> [-a ro|rw]`.
  Status grant(const std::string& cluster, const std::string& fs,
               AccessMode mode);
  /// `mmauth deny`.
  void revoke(const std::string& cluster, const std::string& fs);

  /// Effective access of `cluster` to `fs` (none if unknown/ungranted).
  AccessMode access(const std::string& cluster, const std::string& fs) const;

  /// Admitted cluster names, sorted (for `mmauth show`).
  std::vector<std::string> cluster_names() const;
  /// (fs, mode) grants of one cluster, sorted by fs.
  std::vector<std::pair<std::string, AccessMode>> grants_of(
      const std::string& cluster) const;

 private:
  struct Entry {
    PublicKey key;
    std::unordered_map<std::string, AccessMode> grants;  // fs -> mode
  };
  std::unordered_map<std::string, Entry> clusters_;
};

/// A nonce challenge issued by one side of the handshake.
struct Challenge {
  std::uint64_t nonce = 0;
  std::string issuer;   // cluster that issued the challenge
  std::string subject;  // cluster expected to answer

  /// The byte string the subject must sign.
  std::string payload() const;
};

/// Successful handshake outcome.
struct SessionTicket {
  std::string client_cluster;
  std::string server_cluster;
  CipherList cipher = CipherList::authonly;
  std::uint64_t session_id = 0;
};

/// Server half of the mutual handshake (runs where the FS is exported).
class HandshakeServer {
 public:
  HandshakeServer(std::string cluster, KeyPair key, const TrustStore* trust,
                  CipherList cipher, Rng rng);

  const std::string& cluster() const { return cluster_; }
  const PublicKey& public_key() const { return key_.pub; }
  CipherList cipher() const { return cipher_; }

  /// Phase 1: the server challenges the would-be client. Fails with
  /// not_authorized if the cluster was never mmauth-added.
  Result<Challenge> issue_challenge(const std::string& client_cluster);

  /// Phase 2: verify the client's signature over the outstanding
  /// challenge. On success the challenge is consumed (no replay) and a
  /// ticket is minted.
  Result<SessionTicket> complete(const std::string& client_cluster,
                                 std::uint64_t signature);

  /// Mutual proof: sign a client-issued challenge aimed at this server.
  std::uint64_t prove(const Challenge& ch) const;

 private:
  std::string cluster_;
  KeyPair key_;
  const TrustStore* trust_;
  CipherList cipher_;
  Rng rng_;
  // Several mounts from one cluster may be in flight at once; each gets
  // its own nonce and phase 2 consumes exactly the one it answers.
  std::unordered_map<std::string, std::vector<Challenge>> outstanding_;
  std::uint64_t next_session_ = 1;
};

/// Client half: answers server challenges and verifies the server's
/// counter-proof against the expected key (from mmremotecluster add).
class HandshakeClient {
 public:
  HandshakeClient(std::string cluster, KeyPair key, Rng rng);

  const std::string& cluster() const { return cluster_; }
  const PublicKey& public_key() const { return key_.pub; }

  std::uint64_t respond(const Challenge& ch) const;

  /// Issue our own challenge toward `server_cluster` (mutual auth).
  Challenge challenge(const std::string& server_cluster);

  /// Check the server's answer against the key the admin registered.
  bool verify_server(const Challenge& ch, std::uint64_t sig,
                     const PublicKey& expected_server_key) const;

 private:
  std::string cluster_;
  KeyPair key_;
  Rng rng_;
};

}  // namespace mgfs::auth
