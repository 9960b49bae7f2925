// Allocation regression test (ISSUE 7): a steady-state simulation round on
// dcn-8x8 performs zero heap allocations.
//
// The packed engine's promise is that once the tables and memos are warm —
// prefixes and AS paths interned, candidate rows sized, path-edit memos
// populated — a round touches only preallocated flat arrays. This test
// pins that with a counting `operator new` replacement: it converges the
// full engine via the white-box prime()/step() API, then recomputes one
// more fixpoint round and asserts the allocation counter did not move.
// Any future heap traffic on the hot path (a string build, a map node, a
// vector regrowth) fails here instead of silently eroding the layout wins.
//
// The replacement counts every scalar `operator new` in the binary (the
// default array form forwards to it), so this file gets its own test
// executable (layout_test) rather than riding in routing_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "routing/sim_engine.hpp"
#include "routing/simulator.hpp"
#include "topo/generators.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size != 0 ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace acr::route {
namespace {

TEST(LayoutAllocation, SteadyStateRoundAllocatesNothing) {
  const topo::BuiltNetwork built = topo::buildDcn(8, 8);
  SimOptions options;
  options.record_provenance = false;

  detail::FullEngine engine(built.network, options);
  engine.prime();
  int rounds = 0;
  detail::FullEngine::StepOutcome outcome;
  while ((outcome = engine.step()) ==
         detail::FullEngine::StepOutcome::kAdvanced) {
    ASSERT_LT(++rounds, 1000) << "dcn-8x8 did not converge";
  }
  ASSERT_EQ(outcome, detail::FullEngine::StepOutcome::kConverged);
  EXPECT_GT(rounds, 2) << "workload too trivial to exercise steady state";

  // One extra fixpoint recompute with everything warm: the whole round —
  // origination, announcement transform, policy evaluation, selection,
  // state compare — must run without a single heap allocation.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_EQ(engine.step(), detail::FullEngine::StepOutcome::kConverged);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << (after - before)
                           << " heap allocations in a steady-state round";
}

}  // namespace
}  // namespace acr::route
