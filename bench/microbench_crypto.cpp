// Crypto primitive microbenchmarks. Besides regression tracking, these
// numbers calibrate the macro simulation's ServiceCosts (what an RSA sign,
// verify, or AES packet encryption costs on real hardware).
#include <benchmark/benchmark.h>

#include "core/content.h"
#include "crypto/aes128.h"
#include "crypto/bignum.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

using namespace p2pdrm;

namespace {

crypto::SecureRandom& rng() {
  static crypto::SecureRandom r(12345);
  return r;
}

const crypto::RsaKeyPair& keypair(std::size_t bits) {
  static std::map<std::size_t, crypto::RsaKeyPair> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    it = cache.emplace(bits, crypto::generate_rsa_keypair(rng(), bits)).first;
  }
  return it->second;
}

void BM_Sha256(benchmark::State& state) {
  const util::Bytes data = rng().bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const util::Bytes key = rng().bytes(32);
  const util::Bytes data = rng().bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(1024)->Arg(65536);

void BM_AesBlock(benchmark::State& state) {
  crypto::AesKey key{};
  rng().fill(key);
  const crypto::Aes128 aes(key);
  std::uint8_t block[16] = {};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesBlock);

void BM_AesCtr(benchmark::State& state) {
  crypto::AesKey key{};
  rng().fill(key);
  const crypto::AesCtr ctr(key, 42);
  util::Bytes data = rng().bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ctr.crypt(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(1400)->Arg(65536);  // one MTU / one media chunk

void BM_ChaCha20Block(benchmark::State& state) {
  crypto::ChaChaKey key{};
  crypto::ChaChaNonce nonce{};
  std::uint8_t out[crypto::kChaChaBlockSize];
  std::uint32_t counter = 0;
  for (auto _ : state) {
    crypto::chacha20_block(key, nonce, counter++, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * crypto::kChaChaBlockSize);
}
BENCHMARK(BM_ChaCha20Block);

void BM_BigUIntMul(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const crypto::BigUInt a = crypto::BigUInt::random_with_bits(rng(), bits);
  const crypto::BigUInt b = crypto::BigUInt::random_with_bits(rng(), bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigUIntMul)->Arg(512)->Arg(1024)->Arg(2048);

void BM_BigUIntDivMod(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const crypto::BigUInt a = crypto::BigUInt::random_with_bits(rng(), 2 * bits);
  const crypto::BigUInt b = crypto::BigUInt::random_with_bits(rng(), bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigUInt::divmod(a, b));
  }
}
BENCHMARK(BM_BigUIntDivMod)->Arg(512)->Arg(1024);

void BM_ModPow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  crypto::BigUInt m = crypto::BigUInt::random_with_bits(rng(), bits);
  if (m.is_even()) m += crypto::BigUInt(1);
  const crypto::BigUInt base = crypto::BigUInt::random_with_bits(rng(), bits - 1);
  const crypto::BigUInt exp = crypto::BigUInt::random_with_bits(rng(), bits - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigUInt::mod_pow(base, exp, m));
  }
}
BENCHMARK(BM_ModPow)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_RsaSign(benchmark::State& state) {
  const auto& kp = keypair(static_cast<std::size_t>(state.range(0)));
  const util::Bytes msg = rng().bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(kp.priv, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048);

void BM_RsaVerify(benchmark::State& state) {
  const auto& kp = keypair(static_cast<std::size_t>(state.range(0)));
  const util::Bytes msg = rng().bytes(256);
  const util::Bytes sig = crypto::rsa_sign(kp.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048);

void BM_RsaEncrypt(benchmark::State& state) {
  const auto& kp = keypair(static_cast<std::size_t>(state.range(0)));
  const util::Bytes msg = rng().bytes(48);  // a session key
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_encrypt(kp.pub, msg, rng()));
  }
}
BENCHMARK(BM_RsaEncrypt)->Arg(512)->Arg(1024);

void BM_RsaDecrypt(benchmark::State& state) {
  const auto& kp = keypair(static_cast<std::size_t>(state.range(0)));
  const util::Bytes ct = crypto::rsa_encrypt(kp.pub, rng().bytes(48), rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_decrypt(kp.priv, ct));
  }
}
BENCHMARK(BM_RsaDecrypt)->Arg(512)->Arg(1024);

void BM_RsaKeygen(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::generate_rsa_keypair(rng(), bits));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ContentKeyWrapUnwrap(benchmark::State& state) {
  const core::SessionKey session = core::generate_session_key(rng());
  const core::ContentKey key = core::generate_content_key(rng(), 1, 0);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const util::Bytes blob = core::wrap_content_key(key, session, nonce++);
    benchmark::DoNotOptimize(core::unwrap_content_key(blob, session));
  }
}
BENCHMARK(BM_ContentKeyWrapUnwrap);

void BM_PacketEncryptDecrypt(benchmark::State& state) {
  const core::ContentKey key = core::generate_content_key(rng(), 1, 0);
  const util::Bytes payload = rng().bytes(1400);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const core::ContentPacket p = core::encrypt_packet(key, 1, seq++, payload);
    benchmark::DoNotOptimize(core::decrypt_packet(key, p));
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_PacketEncryptDecrypt);

}  // namespace

BENCHMARK_MAIN();
