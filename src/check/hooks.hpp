// Hook gating for the PhotonCheck shadow-state validator.
//
// The Checker object itself is always compiled and linked (it is a member of
// Fabric), but every call site in the hot paths is wrapped in
// PHOTON_CHECK_HOOK so that a PHOTON_CHECK=OFF build contains literally no
// checker code on the post/completion paths — not even a branch.
//
//   PHOTON_CHECK_HOOK(checker.commit(serial));
//
// expands to the statement when the build was configured with
// -DPHOTON_CHECK=ON (which defines PHOTON_CHECK_ENABLED=1 globally) and to
// nothing otherwise. Expressions that must still compile in OFF builds (e.g.
// a serial variable initialization) use PHOTON_CHECK_EXPR(expr, fallback).
#pragma once

#include "check/checker.hpp"  // IWYU pragma: export

#ifndef PHOTON_CHECK_ENABLED
#define PHOTON_CHECK_ENABLED 0
#endif

#if PHOTON_CHECK_ENABLED
#define PHOTON_CHECK_HOOK(stmt) \
  do {                          \
    stmt;                       \
  } while (false)
#define PHOTON_CHECK_EXPR(expr, fallback) (expr)
#else
#define PHOTON_CHECK_HOOK(stmt) \
  do {                          \
  } while (false)
#define PHOTON_CHECK_EXPR(expr, fallback) (fallback)
#endif

namespace photon::check {

/// The three-phase post protocol for one post, as an RAII guard. The
/// constructor runs begin_op on the PostInfo `fill` completes (kind,
/// initiator and target are set already), commit() runs after a successful
/// NIC post, and the destructor runs abort_post when commit() never ran.
/// Validation, credit and headroom checks that return without posting come
/// before the guard, so they leave no shadow op. With checking compiled out
/// the guard is empty and `fill` never runs. `Nic` is any type with
/// checker() and rank() (fabric::Nic).
class PostGuard {
 public:
#if PHOTON_CHECK_ENABLED
  template <typename Nic, typename Fill>
  PostGuard(Nic& nic, CheckOpKind kind, fabric::Rank target, Fill&& fill)
      : checker_(nic.checker()) {
    PostInfo pi;
    pi.kind = kind;
    pi.initiator = nic.rank();
    pi.target = target;
    fill(pi);
    serial_ = checker_.begin_op(pi);
  }
  ~PostGuard() {
    if (!committed_) checker_.abort_post(serial_);
  }
  void commit() {
    committed_ = true;
    checker_.commit(serial_);
  }
  /// The shadow op's serial, for OpRecord::check_serial (0 = none).
  std::uint64_t serial() const noexcept { return serial_; }
#else
  template <typename Nic, typename Fill>
  PostGuard(Nic& /*nic*/, CheckOpKind /*kind*/, fabric::Rank /*target*/,
            Fill&& /*fill*/) {}
  void commit() {}
  std::uint64_t serial() const noexcept { return 0; }
#endif
  PostGuard(const PostGuard&) = delete;
  PostGuard& operator=(const PostGuard&) = delete;

 private:
#if PHOTON_CHECK_ENABLED
  Checker& checker_;
  std::uint64_t serial_ = 0;
  bool committed_ = false;
#endif
};

}  // namespace photon::check
