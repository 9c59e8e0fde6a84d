#include "parcels/transport.hpp"

#include <cstring>

#include "check/hooks.hpp"
#include "util/idle_wait.hpp"
#include "util/log.hpp"

namespace photon::parcels {

using fabric::Rank;

namespace {
/// Wall-clock budget for draining in-flight sends at transport teardown.
/// Peer FINs normally arrive within microseconds; the bound only matters
/// when a peer died mid-protocol.
constexpr std::uint64_t kTeardownDrainNs = 2'000'000'000ULL;

/// Drive `tr` until its `pending` sends have all completed; false when
/// `budget_ns` ran out first.
template <typename Pending>
bool drain(Transport& tr, const Pending& pending, std::uint64_t budget_ns) {
  if (pending.empty()) return true;
  return util::wait_until(
             budget_ns,
             [&]() -> std::optional<bool> {
               tr.progress();
               if (pending.empty()) return true;
               return std::nullopt;
             },
             [&] { return tr.progress_jump(); })
      .has_value();
}
}  // namespace

// ---- PhotonTransport ----------------------------------------------------------

PhotonTransport::~PhotonTransport() {
  // A large-parcel advert stays pinned until the receiver's FIN lands; the
  // FIN can arrive after our last poll(). Drain here so the registration and
  // its rendezvous request do not outlive the transport (PhotonCheck reports
  // exactly that leak at finalize).
  if (!drain(*this, pending_large_, kTeardownDrainNs))
    log::warn("parcels: ", pending_large_.size(),
              " large send(s) still in flight at transport teardown");
}

Status PhotonTransport::send(Rank dst, HandlerId h,
                             std::span<const std::byte> args) {
  if (args.size() <= ph_.config().eager_threshold) {
    return ph_.send_with_completion(dst, args, std::nullopt, h);
  }

  // Large parcel: pin the body, advertise it, send a control parcel.
  LargeSend ls;
  ls.body.assign(args.begin(), args.end());
  auto desc = ph_.register_buffer(ls.body.data(), ls.body.size());
  if (!desc.ok()) return desc.status();
  ls.desc = desc.value();
  const std::uint64_t tag = next_tag_++;
  auto rq = ph_.post_send_buffer_rq(dst, ls.desc, tag);
  if (!rq.ok()) {
    ph_.unregister_buffer(ls.desc);
    return rq.status();
  }
  ls.request = rq.value();

  LargeCtrl ctrl{h, ls.body.size(), tag};
  const Status st = ph_.send_with_completion(
      dst, std::as_bytes(std::span<const LargeCtrl, 1>(&ctrl, 1)), std::nullopt,
      kLargeBit);
  if (st != Status::Ok) {
    ph_.unregister_buffer(ls.desc);
    return st;
  }
  pending_large_.push_back(std::move(ls));
  return Status::Ok;
}

Status PhotonTransport::quiesce(std::uint64_t timeout_ns) {
  // Pending large-send adverts first: dead peers' requests resolve with
  // PeerUnreachable via the core health sweep, live peers' via their FIN.
  if (!drain(*this, pending_large_, timeout_ns)) return Status::Retry;
  return ph_.quiesce(timeout_ns);
}

void PhotonTransport::reap_large_sends() {
  for (std::size_t i = 0; i < pending_large_.size();) {
    bool done = false;
    const Status st = ph_.test(pending_large_[i].request, done);
    if (st != Status::Ok || done) {
      ph_.unregister_buffer(pending_large_[i].desc);
      pending_large_[i] = std::move(pending_large_.back());
      pending_large_.pop_back();
    } else {
      ++i;
    }
  }
}

std::optional<Parcel> PhotonTransport::poll() {
  reap_large_sends();
  // Keyed events (collective blocks, DDS handoffs) never reach this probe;
  // Photon files them for take_event() on delivery.
  auto ev = ph_.probe_event();
  if (!ev) return std::nullopt;

  if ((ev->id & kLargeBit) == 0) {
    Parcel p;
    p.handler = static_cast<HandlerId>(ev->id);
    p.src = ev->peer;
    p.args = std::move(ev->payload);
    return p;
  }

  // Large-parcel control: pull the body with the rendezvous protocol.
  LargeCtrl ctrl;
  if (ev->payload.size() != sizeof(ctrl)) {
    log::warn("parcels: malformed large-parcel control from ", ev->peer);
    return std::nullopt;
  }
  std::memcpy(&ctrl, ev->payload.data(), sizeof(ctrl));
  auto rb = ph_.wait_recv_rq(ev->peer, ctrl.tag);
  if (!rb.ok()) {
    log::warn("parcels: missing advert for large parcel tag ", ctrl.tag);
    return std::nullopt;
  }
  Parcel p;
  p.handler = static_cast<HandlerId>(ctrl.handler);
  p.src = ev->peer;
  p.args.resize(ctrl.size);
  auto dst = ph_.register_buffer(p.args.data(), p.args.size());
  if (!dst.ok()) return std::nullopt;
  auto get = ph_.post_os_get(ev->peer,
                             core::local_mut_slice(dst.value(), 0, ctrl.size),
                             rb.value());
  if (!get.ok() || ph_.wait(get.value()) != Status::Ok) {
    ph_.unregister_buffer(dst.value());
    return std::nullopt;
  }
  // The get's request has completed, so this read of the landed body is
  // legitimate — and the checker audits exactly that claim.
  PHOTON_CHECK_HOOK(ph_.nic().checker().note_user_read(ph_.rank(), p.args.data(),
                                                       p.args.size()));
  ph_.send_fin(ev->peer, rb.value());
  ph_.unregister_buffer(dst.value());
  return p;
}

// ---- MsgTransport ----------------------------------------------------------------

MsgTransport::~MsgTransport() {
  if (!drain(*this, in_flight_, kTeardownDrainNs))
    log::warn("parcels: ", in_flight_.size(),
              " send(s) still in flight at transport teardown");
}

Status MsgTransport::send(Rank dst, HandlerId h,
                          std::span<const std::byte> args) {
  // isend requires the buffer to stay valid until completion; rendezvous
  // transfers read it remotely, so pin a copy until the request finishes.
  PendingSend ps;
  const bool needs_pin = args.size() > eng_.config().eager_threshold;
  std::span<const std::byte> wire = args;
  if (needs_pin) {
    ps.body.assign(args.begin(), args.end());
    wire = ps.body;
  }
  auto rq = eng_.isend(dst, h, wire);
  if (!rq.ok()) return rq.status();
  ps.request = rq.value();
  in_flight_.push_back(std::move(ps));
  reap_sends();
  return Status::Ok;
}

Status MsgTransport::quiesce(std::uint64_t timeout_ns) {
  return drain(*this, in_flight_, timeout_ns) ? Status::Ok : Status::Retry;
}

void MsgTransport::reap_sends() {
  for (std::size_t i = 0; i < in_flight_.size();) {
    bool done = false;
    const Status st = eng_.test(in_flight_[i].request, done);
    if (st != Status::Ok || done) {
      in_flight_[i] = std::move(in_flight_.back());
      in_flight_.pop_back();
    } else {
      ++i;
    }
  }
}

std::optional<Parcel> MsgTransport::poll() {
  reap_sends();
  auto info = eng_.iprobe(msg::kAnySource, msg::kAnyTag);
  if (!info) return std::nullopt;
  Parcel p;
  p.handler = static_cast<HandlerId>(info->tag);
  p.src = info->source;
  p.args.resize(info->len);
  auto got = eng_.recv(info->source, info->tag, p.args);
  if (!got.ok()) return std::nullopt;
  return p;
}

}  // namespace photon::parcels
