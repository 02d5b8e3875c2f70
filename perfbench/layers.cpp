// Per-layer costs timed from outside: direct calls into the public crypto,
// core and store functions at the sizes the workloads use, plus the
// critical-path split of traced protocol rounds.
#include <cctype>

#include "common.h"
#include "core/content.h"
#include "core/policy.h"
#include "core/ticket.h"
#include "crypto/aes128.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "services/catalog.h"
#include "services/durable_ops.h"
#include "store/journal.h"

namespace perfbench {

namespace crypto = p2pdrm::crypto;
namespace core = p2pdrm::core;
namespace util = p2pdrm::util;

void measure_layers(std::uint64_t seed, Result& out) {
  constexpr double kBudget = 0.15;  // seconds per metric
  crypto::SecureRandom rng(seed ^ 0x6c61796572ull);

  // RSA at the managers' size (1024 bits) over a user-ticket-sized body.
  const crypto::RsaKeyPair manager = crypto::generate_rsa_keypair(rng, 1024);
  std::vector<double> keygen_ms;
  crypto::RsaKeyPair client;
  for (int i = 0; i < 7; ++i) {
    const Clock::time_point t0 = Clock::now();
    client = crypto::generate_rsa_keypair(rng, 512);
    keygen_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.set("crypto.rsa_keygen_ms", median(keygen_ms), "ms");

  const core::ChannelRecord channel =
      p2pdrm::services::make_regional_channel(1, "bench", 100, 0);
  core::UserTicket ticket;
  ticket.user_in = 1;
  ticket.client_public_key = client.pub;
  ticket.start_time = 0;
  ticket.expiry_time = 30 * util::kMinute;
  ticket.attributes = channel.attributes;
  const core::SignedUserTicket signed_ticket =
      core::SignedUserTicket::sign(ticket, manager.priv);
  const util::Bytes body = signed_ticket.body;
  const util::Bytes sig = signed_ticket.signature;
  const util::Bytes wire_ticket = signed_ticket.encode();

  out.set("crypto.rsa_sign_us",
          time_per_call_us([&] { (void)crypto::rsa_sign(manager.priv, body); },
                           kBudget, 4),
          "us");
  bool verified = true;
  out.set("crypto.rsa_verify_us",
          time_per_call_us(
              [&] { verified &= crypto::rsa_verify(manager.pub, body, sig); },
              kBudget, 32),
          "us");
  const util::Bytes session = rng.bytes(48);
  const util::Bytes ct = crypto::rsa_encrypt(manager.pub, session, rng);
  out.set("crypto.rsa_encrypt_us",
          time_per_call_us(
              [&] { (void)crypto::rsa_encrypt(manager.pub, session, rng); },
              kBudget, 32),
          "us");
  out.set("crypto.rsa_decrypt_us",
          time_per_call_us([&] { (void)crypto::rsa_decrypt(manager.priv, ct); },
                           kBudget, 4),
          "us");

  // Symmetric primitives: one 1400-byte content packet, one 16 KiB client
  // binary attestation blob.
  crypto::AesKey aes_key{};
  rng.fill(aes_key);
  const crypto::AesCtr ctr(aes_key, rng.next_u64());
  util::Bytes packet = rng.bytes(1400);
  const double aes_us =
      time_per_call_us([&] { ctr.crypt(packet); }, kBudget, 64);
  out.set("crypto.aes_ctr_mb_s", 1400.0 / aes_us, "MB/s");
  const util::Bytes blob = rng.bytes(16 * 1024);
  const double sha_us =
      time_per_call_us([&] { (void)crypto::sha256(blob); }, kBudget, 16);
  out.set("crypto.sha256_mb_s", 16.0 * 1024.0 / sha_us, "MB/s");

  // Protocol handlers: what a Channel Manager does with a presented ticket,
  // and the content plane's per-packet and per-link key work.
  out.set("core.user_ticket_verify_us",
          time_per_call_us(
              [&] {
                verified &=
                    core::SignedUserTicket::decode(wire_ticket).verify(manager.pub);
              },
              kBudget, 32),
          "us");
  bool accepted = true;
  out.set("core.policy_eval_us",
          time_per_call_us(
              [&] {
                accepted &= core::evaluate_policies(channel, ticket.attributes,
                                                    util::kMinute)
                                .decision == core::AccessDecision::kAccept;
              },
              kBudget, 256),
          "us");
  const core::SessionKey link = core::generate_session_key(rng);
  const core::ContentKey content_key = core::generate_content_key(rng, 1, 0);
  std::uint64_t nonce = 0;
  out.set("core.key_wrap_unwrap_us",
          time_per_call_us(
              [&] {
                const util::Bytes w =
                    core::wrap_content_key(content_key, link, nonce++);
                accepted &= core::unwrap_content_key(w, link).has_value();
              },
              kBudget, 64),
          "us");
  const util::Bytes media = rng.bytes(1400);
  std::uint64_t seq = 0;
  out.set("core.packet_encrypt_us",
          time_per_call_us(
              [&] { (void)core::encrypt_packet(content_key, 1, seq++, media); },
              kBudget, 64),
          "us");
  const core::ContentPacket sealed = core::encrypt_packet(content_key, 1, 7, media);
  out.set("core.packet_decrypt_us",
          time_per_call_us(
              [&] {
                accepted &= core::decrypt_packet(content_key, sealed).has_value();
              },
              kBudget, 64),
          "us");

  // Store: one ViewingLog write-through record (what SWITCH2 journals).
  p2pdrm::services::ViewingLog::Entry entry;
  entry.user_in = 1;
  entry.channel = 1;
  entry.time = util::kMinute;
  const util::Bytes record = p2pdrm::services::encode_viewing_entry(entry);
  std::vector<double> append_us;
  const Clock::time_point start = Clock::now();
  while (append_us.size() < 5 || seconds_since(start) < kBudget) {
    p2pdrm::store::Journal journal;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 256; ++i) journal.append(record);
    append_us.push_back(seconds_since(t0) * 1e6 / 256);
  }
  out.set("store.journal_append_us", median(append_us), "us");

  out.check("layer probes: signatures verify, policy accepts, packets decrypt",
            verified && accepted);
}

void critical_path_metrics(const p2pdrm::analysis::CriticalPathReport& report,
                           Result& out) {
  for (const char* round : {"LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN"}) {
    std::string name = "split.";
    for (const char* c = round; *c != '\0'; ++c) {
      name += static_cast<char>(std::tolower(static_cast<unsigned char>(*c)));
    }
    const auto it = report.rounds.find(round);
    const p2pdrm::analysis::RoundBreakdown b =
        it == report.rounds.end() ? p2pdrm::analysis::RoundBreakdown{} : it->second;
    const double n = b.rounds == 0 ? 1.0 : static_cast<double>(b.rounds);
    out.set(name + ".network_us", static_cast<double>(b.network_us) / n, "us");
    out.set(name + ".queue_us", static_cast<double>(b.queue_us) / n, "us");
    out.set(name + ".service_us", static_cast<double>(b.service_us) / n, "us");
    out.set(name + ".retrans_us", static_cast<double>(b.retrans_us) / n, "us");
    out.set(name + ".client_us", static_cast<double>(b.client_us) / n, "us");
  }
}

}  // namespace perfbench
