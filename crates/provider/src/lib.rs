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
//! - [`sched`] — the segment planner both the SDK and the swarm model use:
//!   CDN slow start, then peers first with the CDN as fallback;
//! - [`sdk`] — the client agent a customer embeds (sans-IO state machine);
//! - [`service`] — open-loop service mode: the tracker under live Poisson
//!   load with bounded inboxes, load shedding, and tail-latency SLOs;
//! - [`world`] — the simulation harness wiring it all onto `pdn-simnet`.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//!
//! use pdn_media::VideoSource;
//! use pdn_provider::world::{PdnWorld, ViewerSpec};
//! use pdn_provider::{AgentConfig, CustomerAccount, ProviderProfile};
//! use pdn_simnet::SimTime;
//!
//! let mut world = PdnWorld::new(ProviderProfile::peer5(), 7);
//! world
//!     .server_mut()
//!     .accounts_mut()
//!     .register(CustomerAccount::new("demo-customer", "demo-key", ["demo.tv".to_string()]));
//! world.publish_video(VideoSource::vod("demo-video", vec![1_000_000], Duration::from_secs(4), 30));
//! let mut cfg = AgentConfig::new("demo-video", "demo-key", "demo.tv");
//! cfg.vod_end = Some(30);
//! world.spawn_viewer(ViewerSpec::residential(cfg.clone()));
//! world.run_until(SimTime::from_secs(10));
//! let late = world.spawn_viewer(ViewerSpec::residential(cfg));
//! world.run_until(SimTime::from_secs(140));
//! // The late joiner offloaded part of the stream from the early one.
//! assert!(world.agent(late).player().p2p_offload_ratio() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod billing;
pub mod profiles;
pub mod proto;
pub mod sched;
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
