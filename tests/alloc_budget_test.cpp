// Allocation budget of the data plane. One content packet crossing the
// three-deep relay tree may allocate payload-sized memory only where the
// design needs it: the source's ciphertext and its one envelope encoding,
// then one plaintext per viewer. Relays forward the buffer they received
// and viewers decode it in place, so a copy that creeps back into any hop
// shows up here as an extra allocation.
//
// This binary replaces the global operator new and delete to count
// allocations of at least 1 KiB; smaller ones (closures, map nodes,
// shared-pointer control blocks) are not payload copies and are not
// counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "relay_tree.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_large{0};
constexpr std::size_t kLarge = 1024;

void* counted_malloc(std::size_t n) noexcept {
  if (n >= kLarge && g_counting.load(std::memory_order_relaxed)) {
    g_large.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// Every plain form is replaced, so that each pairs with a delete below
// (sanitizer runtimes supply whichever form a program leaves out).
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}

// Not inlined: GCC would otherwise pair a visible operator new with these
// free() calls and warn about a mismatch that the replacement makes
// consistent.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace p2pdrm::net {
namespace {

TEST(AllocationBudgetTest, OnePlaintextPerViewerPlusTheSourcesEncryptAndEncode) {
  Deployment d(relay_tree_config(TransportKind::kSim));
  RelayTree tree = build_relay_tree(d);
  ASSERT_FALSE(HasFailure());
  const util::Bytes payload(1400, 0x5a);

  // The first packet pays for first-use state (metrics, reassembly).
  d.broadcast(RelayTree::kChannel, payload);
  d.run_for(1 * util::kSecond);

  g_large = 0;
  g_counting = true;
  d.broadcast(RelayTree::kChannel, payload);
  d.run_for(1 * util::kSecond);
  g_counting = false;

  for (const auto& viewer : tree.viewers) EXPECT_EQ(viewer->content_decrypted(), 2u);
  EXPECT_EQ(g_large.load(), tree.viewers.size() + 2);
}

}  // namespace
}  // namespace p2pdrm::net
