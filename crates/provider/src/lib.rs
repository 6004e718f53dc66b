//! # pdn-provider
//!
//! The peer-assisted delivery network itself: everything a commercial PDN
//! service (Peer5, Streamroot, Viblast, or a private platform PDN) runs, as
//! measured by the *Stealthy Peers* paper —
//!
//! - [`auth`] — static API keys, domain allowlists, temp tokens, and the
//!   §V-A disposable video-binding JWT;
//! - [`billing`] — the per-traffic and per-viewer-hour charging models the
//!   free-riding attack inflates;
//! - [`profiles`] — per-provider security postures (Table V's switches);
//! - [`proto`] — signaling / HTTP / P2P wire formats;
//! - [`wire`] — the versioned zero-copy binary codec behind [`proto`];
//! - [`signaling`] — the tracker: swarms, neighbor introduction, metering,
//!   §V-B integrity checking with blacklist, §V-C peer matching;
//! - [`sdk`] — the client agent a customer embeds (sans-IO state machine);
//! - [`service`] — open-loop service mode: the tracker under live Poisson
//!   load with bounded inboxes, load shedding, and tail-latency SLOs;
//! - [`world`] — the simulation harness wiring it all onto `pdn-simnet`.
//!
//! # Examples
//!
//! ```
//! use pdn_provider::world::demo_world;
//! use pdn_simnet::SimTime;
//!
//! let (mut world, viewers) = demo_world(7);
//! world.run_until(SimTime::from_secs(140));
//! // The late joiner offloaded part of the stream from the early one.
//! assert!(world.agent(viewers[1]).player().p2p_offload_ratio() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod billing;
pub mod profiles;
pub mod proto;
pub mod sdk;
pub mod service;
pub mod signaling;
pub mod state;
pub mod swarm;
pub mod wire;
pub mod world;

pub use auth::{AccountRegistry, AuthError, CustomerAccount, PdnToken, TokenValidator};
pub use billing::{BillingModel, UsageMeter};
pub use profiles::{AuthScheme, CellularPolicy, ProviderKind, ProviderProfile};
pub use proto::{HttpRequest, HttpResponse, SignalMsg};
pub use sdk::{AgentConfig, AgentOut, PdnAgent};
pub use signaling::{compute_im, AdmissionBatch, DefenseStats, MatchingPolicy, SignalingServer};
pub use swarm::{RegionStats, SwarmConfig, SwarmWorld};
pub use world::{PdnWorld, ViewerSpec};
