//! Open-loop service mode: the signaling/tracker plane under live load.
//!
//! The paper measures PDN providers as *services*: a tracker that keeps
//! answering joins while flash crowds, regional failovers, and greeter
//! floods (§IV-B) arrive on their own schedule. This module adds that
//! serving story on top of [`crate::signaling`]:
//!
//! - [`inbox`](self) — [`BoundedInboxes`]: bounded per-connection inboxes
//!   with explicit backpressure and priority-aware load shedding (greeter
//!   junk first, gossip next, join/leave never silently);
//! - [`harness`](self) — [`ServiceWorld`] / [`run_service`]: Poisson/diurnal
//!   arrivals on simnet virtual time driving the server + CDN origin
//!   through those inboxes, with join-to-first-segment and signaling-RTT
//!   latency recorded in mergeable log-bucketed histograms;
//! - [`federation`](self) — [`run_federation`]: K of those worlds as
//!   regional trackers under the conservative shard runner, with overload
//!   spill to the next region and session hand-off when a tracker fails.
//!   One world type serves both: a single-tracker run is K = 1.
//!
//! `service_bench` (in `pdn-bench`) sweeps this harness to find the knee,
//! then holds goodput at 2× and 10× overload and scales the federation to
//! K = 4 — the `BENCH_service.json` numbers and the `scripts/check.sh` SLO
//! gate.

mod federation;
mod harness;
mod inbox;

pub use federation::{run_federation, FederationConfig, FederationReport, HandoffRecord};
pub use harness::{run_service, CaptureScope, ServiceConfig, ServiceReport, ServiceWorld};
pub use inbox::{is_leave_frame, Admit, BoundedInboxes, InboxConfig, MsgClass, ShedStats};
