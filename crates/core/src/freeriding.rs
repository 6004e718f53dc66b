//! Service free riding (§IV-B): peer-authentication tests and the cost
//! amplification attack.
//!
//! Two tests, exactly as the paper runs them against its own test website:
//!
//! 1. **Cross-domain attack** — embed a victim's API key on the attacker's
//!    site (`www.test.com`), play the attacker's own stream, and see
//!    whether the PDN server binds the peers. Succeeds unless the customer
//!    enabled the domain allowlist.
//! 2. **Domain-spoofing attack** — same, but the analyzer's proxy rewrites
//!    the `Origin` header to the victim's domain. Succeeds against *every*
//!    provider, because the header is attacker-controlled.
//!
//! Plus the economic consequence: attacker-generated P2P traffic and
//! viewer hours land on the victim's meter.

use std::time::Duration;

use pdn_detector::tables::ExtractedKey;
use pdn_media::VideoSource;
use pdn_provider::sdk::ports;
use pdn_provider::world::{PdnWorld, ViewerSpec};
use pdn_provider::{AgentConfig, CustomerAccount, ProviderProfile, SignalMsg};
use pdn_simnet::{SimTime, TapDirection, TapVerdict};

/// Outcome of one peer-authentication test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthTestOutcome {
    /// The attacker's peers joined and exchanged data: free riding works.
    Vulnerable,
    /// The join was denied.
    Protected,
}

/// Result of running both §IV-B tests against one provider configuration.
#[derive(Debug, Clone)]
pub struct FreeRidingResult {
    /// Provider under test.
    pub provider: String,
    /// Cross-domain attack outcome.
    pub cross_domain: AuthTestOutcome,
    /// Domain-spoofing attack outcome.
    pub domain_spoofing: AuthTestOutcome,
    /// P2P bytes the attacker managed to generate under the victim's key.
    pub attacker_p2p_bytes: u64,
    /// The victim's bill after the attack (USD).
    pub victim_bill_usd: f64,
}

const VICTIM_KEY: &str = "victim-api-key";
const VICTIM_DOMAIN: &str = "victim.tv";
const ATTACKER_DOMAIN: &str = "www.test.com";
const ATTACKER_VIDEO: &str = "attacker-stream";

fn attack_world(profile: &ProviderProfile, allowlist: bool, seed: u64) -> PdnWorld {
    let mut world = PdnWorld::new(profile.clone(), seed);
    let mut account = CustomerAccount::new("victim", VICTIM_KEY, [VICTIM_DOMAIN.to_string()]);
    account.allowlist_enabled = allowlist;
    world.server_mut().accounts_mut().register(account);
    // The attacker streams *their own* video through the victim's PDN
    // subscription — that is the free ride.
    world.publish_video(VideoSource::vod(
        ATTACKER_VIDEO,
        vec![1_000_000],
        Duration::from_secs(4),
        15,
    ));
    world
}

fn attacker_config() -> AgentConfig {
    let mut cfg = AgentConfig::new(ATTACKER_VIDEO, VICTIM_KEY, ATTACKER_DOMAIN);
    cfg.vod_end = Some(15);
    cfg
}

/// Runs the cross-domain attack: two attacker peers, the victim's key,
/// the attacker's own origin. Returns the outcome plus generated traffic.
pub fn cross_domain_attack(
    profile: &ProviderProfile,
    allowlist_enabled: bool,
    seed: u64,
) -> (AuthTestOutcome, u64) {
    let mut world = attack_world(profile, allowlist_enabled, seed);
    let a = world.spawn_viewer(ViewerSpec::residential(attacker_config()));
    world.run_until(SimTime::from_secs(8));
    let b = world.spawn_viewer(ViewerSpec::residential(attacker_config()));
    world.run_until(SimTime::from_secs(90));
    let joined = world.agent(a).peer_id().is_some() && world.agent(b).peer_id().is_some();
    let (_, down, _) = world.agent(b).traffic();
    if joined && down > 0 {
        (AuthTestOutcome::Vulnerable, down)
    } else {
        (AuthTestOutcome::Protected, 0)
    }
}

/// Runs the domain-spoofing attack: the analyzer's proxy rewrites the
/// `Origin` of every Join to the victim's domain.
pub fn domain_spoofing_attack(profile: &ProviderProfile, seed: u64) -> (AuthTestOutcome, u64) {
    let mut world = attack_world(profile, true, seed);
    let spawn_spoofed = |world: &mut PdnWorld| {
        let node = world.spawn_viewer(ViewerSpec::residential(attacker_config()));
        world.net_mut().install_tap(
            node,
            Box::new(|dir, dgram| {
                if dir != TapDirection::Outbound || dgram.src.port != ports::SIGNAL {
                    return TapVerdict::Forward;
                }
                let Some(msg) = SignalMsg::decode(&dgram.payload) else {
                    return TapVerdict::Forward;
                };
                if let SignalMsg::Join {
                    api_key,
                    token,
                    video,
                    manifest_hash,
                    sdp,
                    ..
                } = msg
                {
                    let spoofed = SignalMsg::Join {
                        api_key,
                        token,
                        origin: VICTIM_DOMAIN.to_string(),
                        video,
                        manifest_hash,
                        sdp,
                    };
                    TapVerdict::Replace(spoofed.encode())
                } else {
                    TapVerdict::Forward
                }
            }),
        );
        node
    };
    let a = spawn_spoofed(&mut world);
    world.run_until(SimTime::from_secs(8));
    let b = spawn_spoofed(&mut world);
    world.run_until(SimTime::from_secs(90));
    let joined = world.agent(a).peer_id().is_some() && world.agent(b).peer_id().is_some();
    let (_, down, _) = world.agent(b).traffic();
    if joined && down > 0 {
        (AuthTestOutcome::Vulnerable, down)
    } else {
        (AuthTestOutcome::Protected, 0)
    }
}

/// Runs both tests and the billing measurement for one provider.
pub fn evaluate_provider(profile: &ProviderProfile, seed: u64) -> FreeRidingResult {
    let (cross_domain, _) = cross_domain_attack(profile, profile.allowlist_default, seed);
    let (domain_spoofing, spoof_bytes) = domain_spoofing_attack(profile, seed + 1);

    // Bill the victim for whichever attack worked.
    let mut world = attack_world(profile, profile.allowlist_default, seed + 2);
    let a = world.spawn_viewer(ViewerSpec::residential(attacker_config()));
    world.run_until(SimTime::from_secs(8));
    let _b = world.spawn_viewer(ViewerSpec::residential(attacker_config()));
    world.run_until(SimTime::from_secs(120));
    let _ = a;
    let meter = world.server().meter("victim");
    FreeRidingResult {
        provider: profile.name.clone(),
        cross_domain,
        domain_spoofing,
        attacker_p2p_bytes: meter.p2p_bytes.max(spoof_bytes),
        victim_bill_usd: meter.cost_usd(profile.billing),
    }
}

/// The §IV-B private-PDN test: the paper hooked Mango TV's player SDK,
/// integrated it into the test website, and "observed effective PDN
/// traffic for data transmission between peers … the attacker can
/// free-ride such a PDN service with no constraints", because its
/// temporary tokens are not bound to the video source.
///
/// Returns `(joined, p2p_bytes)` for attacker peers streaming the
/// attacker's own video through the platform's PDN.
pub fn private_pdn_free_ride(seed: u64) -> (bool, u64) {
    let profile = ProviderProfile::private_mango_tv();
    let mut world = PdnWorld::new(profile, seed);
    world.publish_video(VideoSource::vod(
        ATTACKER_VIDEO,
        vec![1_000_000],
        Duration::from_secs(4),
        15,
    ));
    // The hooked SDK obtains platform tokens exactly as a legit player
    // would (they are minted per page view, for *some* platform video);
    // unbound tokens then work for any stream.
    let spawn = |world: &mut PdnWorld| {
        let token = world
            .server_mut()
            .mint_temp_token(Some(pdn_media::VideoId::new("platform-official-video")));
        let mut cfg = AgentConfig::new(ATTACKER_VIDEO, "", ATTACKER_DOMAIN);
        cfg.api_key = None;
        cfg.token = Some(token);
        cfg.vod_end = Some(15);
        world.spawn_viewer(ViewerSpec::residential(cfg))
    };
    let a = spawn(&mut world);
    world.run_until(SimTime::from_secs(8));
    let b = spawn(&mut world);
    world.run_until(SimTime::from_secs(90));
    let joined = world.agent(a).peer_id().is_some() && world.agent(b).peer_id().is_some();
    let (_, down, _) = world.agent(b).traffic();
    (joined, down)
}

/// The §IV-B field study: test every extracted API key against its
/// provider's (simulated) server for cross-domain acceptance.
#[derive(Debug, Clone, Default)]
pub struct KeyFieldStudy {
    /// Keys tested.
    pub tested: usize,
    /// Keys still valid (not expired).
    pub valid: usize,
    /// Keys expired.
    pub expired: usize,
    /// Valid keys accepting a foreign origin (cross-domain vulnerable).
    pub cross_domain_vulnerable: usize,
    /// Valid keys accepting a spoofed origin (always all of them).
    pub spoof_vulnerable: usize,
}

/// Evaluates extracted keys against a provider server seeded with the
/// corpus ground-truth accounts.
pub fn key_field_study(eco: &pdn_detector::Ecosystem, keys: &[ExtractedKey]) -> KeyFieldStudy {
    use pdn_detector::corpus::Plant;

    let mut study = KeyFieldStudy::default();
    // Register every planted account in one registry per provider; the
    // auth check itself is provider-independent.
    let mut registry = pdn_provider::AccountRegistry::new();
    for site in &eco.websites {
        if let Some(Plant::Public {
            api_key,
            key_expired,
            allowlist_enabled,
            ..
        }) = &site.plant
        {
            let mut account =
                CustomerAccount::new(site.domain.clone(), api_key.clone(), [site.domain.clone()]);
            account.expired = *key_expired;
            account.allowlist_enabled = *allowlist_enabled;
            registry.register(account);
        }
    }
    for key in keys {
        study.tested += 1;
        // Cross-domain: present the attacker's own origin.
        match registry.authenticate_key(&key.key, ATTACKER_DOMAIN) {
            Ok(_) => {
                study.valid += 1;
                study.cross_domain_vulnerable += 1;
                study.spoof_vulnerable += 1;
            }
            Err(pdn_provider::AuthError::ExpiredKey) => {
                study.expired += 1;
            }
            Err(pdn_provider::AuthError::OriginNotAllowed) => {
                study.valid += 1;
                // Spoofing presents the registered domain instead.
                if registry.authenticate_key(&key.key, &key.domain).is_ok() {
                    study.spoof_vulnerable += 1;
                }
            }
            Err(_) => {}
        }
    }
    study
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer5_default_vulnerable_to_cross_domain() {
        let p = ProviderProfile::peer5();
        let (outcome, bytes) = cross_domain_attack(&p, p.allowlist_default, 1);
        assert_eq!(outcome, AuthTestOutcome::Vulnerable);
        assert!(bytes > 0, "attacker peers exchanged segments");
    }

    #[test]
    fn viblast_allowlist_blocks_cross_domain() {
        let p = ProviderProfile::viblast();
        let (outcome, _) = cross_domain_attack(&p, p.allowlist_default, 2);
        assert_eq!(outcome, AuthTestOutcome::Protected);
    }

    #[test]
    fn all_public_providers_vulnerable_to_spoofing() {
        for p in [
            ProviderProfile::peer5(),
            ProviderProfile::streamroot(),
            ProviderProfile::viblast(),
        ] {
            let (outcome, _) = domain_spoofing_attack(&p, 3);
            assert_eq!(outcome, AuthTestOutcome::Vulnerable, "{}", p.name);
        }
    }

    #[test]
    fn attack_bills_the_victim() {
        let r = evaluate_provider(&ProviderProfile::peer5(), 4);
        assert!(r.attacker_p2p_bytes > 0);
        assert!(r.victim_bill_usd > 0.0, "victim pays for the free ride");
    }

    #[test]
    fn mango_tv_private_pdn_free_rides() {
        let (joined, p2p) = private_pdn_free_ride(77);
        assert!(joined, "hooked SDK joins with unbound tokens");
        assert!(p2p > 0, "effective PDN traffic between attacker peers");
    }

    #[test]
    fn video_bound_tokens_stop_the_private_free_ride() {
        // The §IV-B observation inverted: had Mango TV bound its tokens to
        // the video source, the attack would die at the join.
        let mut profile = ProviderProfile::private_mango_tv();
        profile.auth = pdn_provider::AuthScheme::TempToken { video_bound: true };
        let mut world = PdnWorld::new(profile, 78);
        world.publish_video(VideoSource::vod(
            ATTACKER_VIDEO,
            vec![1_000_000],
            Duration::from_secs(4),
            15,
        ));
        let token = world
            .server_mut()
            .mint_temp_token(Some(pdn_media::VideoId::new("platform-official-video")));
        let mut cfg = AgentConfig::new(ATTACKER_VIDEO, "", ATTACKER_DOMAIN);
        cfg.api_key = None;
        cfg.token = Some(token);
        cfg.vod_end = Some(15);
        let a = world.spawn_viewer(ViewerSpec::residential(cfg));
        world.run_until(SimTime::from_secs(60));
        assert!(world.agent(a).peer_id().is_none(), "join denied");
    }

    #[test]
    fn field_study_reproduces_section_4b() {
        use pdn_detector::{corpus, tables};
        use pdn_simnet::SimRng;
        let mut rng = SimRng::seed(5);
        let eco = corpus::generate(
            corpus::CorpusConfig {
                website_haystack: 200,
                app_haystack: 200,
                video_fraction: 0.3,
            },
            &mut rng,
        );
        let report = tables::run_pipeline(&eco, &mut rng);
        let study = key_field_study(&eco, &report.keys);
        assert_eq!(study.tested, 44, "44 keys extracted");
        assert_eq!(study.valid, 40, "40 valid during the test");
        assert_eq!(study.expired, 4, "4 expired");
        assert_eq!(study.cross_domain_vulnerable, 11, "11 without allowlist");
        assert_eq!(study.spoof_vulnerable, 40, "all valid keys spoofable");
    }
}
