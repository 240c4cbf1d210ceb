//! The two-machine testbed of the paper's Figure 2.
//!
//! ```text
//!   client ──100 Mbps── switch ──100 Mbps── web server
//!     │                                        └─ 50 ms netem on egress
//!     └─ WinDump/tcpdump (capture tap)
//! ```
//!
//! The runner builds every repetition as a [`Scenario`], whatever the
//! client count. [`Testbed`] is the thin one-session wrapper over it,
//! for code that drives a single session by hand; [`TestbedConfig`] is
//! the network and server configuration both share.

use std::net::Ipv4Addr;

use bytes::Bytes;

use bnm_browser::{BrowserProfile, BrowserSession, ProbePlan};
use bnm_http::server::{ServerConfig, WebServer};
use bnm_obs::{Trace, TraceData};
use bnm_sim::engine::{Engine, NodeId};
use bnm_sim::link::{LinkId, LinkSpec};
use bnm_sim::time::{SimDuration, SimTime};
use bnm_sim::wire::MacAddr;
use bnm_sim::LinkShape;
use bnm_sim::{Impairment, TapId};
use bnm_tcp::Host;
use bnm_time::MachineTimer;

use crate::scenario::{Scenario, SessionSpec};

/// Addresses of the testbed (the paper's lab subnet flavour).
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
/// The web server's address.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
/// Client NIC MAC.
pub const CLIENT_MAC: MacAddr = MacAddr::local(2);
/// Server NIC MAC.
pub const SERVER_MAC: MacAddr = MacAddr::local(1);

/// Cross-traffic load on the testbed (the paper explicitly ensured
/// "the network was free of cross traffic"; this knob breaks that
/// assumption on purpose, to show the methodology's robustness).
#[derive(Debug, Clone, Copy)]
pub struct CrossTraffic {
    /// Noise datagrams per second sent toward the server's UDP echo port
    /// (each is echoed, loading both directions of the server link).
    pub rate_pps: u64,
    /// Noise payload size, bytes.
    pub payload: usize,
    /// How long the noise source runs.
    pub duration: SimDuration,
}

/// Testbed construction parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// One-way netem delay applied on the server's egress (§3: 50 ms).
    pub server_delay: SimDuration,
    /// Capture timestamp noise bound (ns); 0 = exact.
    pub capture_noise_ns: u64,
    /// Web server knobs.
    pub server: ServerConfig,
    /// Master seed for the capture-noise stream.
    pub seed: u64,
    /// The server's access link — the segment every session of a
    /// multi-client [`crate::scenario::Scenario`] contends for. The
    /// default is the paper's 100 Mbps fast Ethernet; the `contend`
    /// experiment narrows it to make the shared bottleneck bite.
    pub server_link: LinkSpec,
    /// Dynamic shaping of the server's access link: per-direction spec
    /// overrides (asymmetric rates), time-varying rate schedules and the
    /// queue discipline ([`LinkShape`]). The default installs nothing —
    /// the clean build stays bit-identical — while the `bloat` and
    /// `varying` battery scenarios plug in deep drop-tail queues, CoDel
    /// and rate schedules here.
    pub server_shape: LinkShape,
    /// Optional cross-traffic source contending on the server link.
    pub cross_traffic: Option<CrossTraffic>,
    /// Network impairment: `up` applies to the client's egress, `down`
    /// to the server's egress (alongside the netem delay), and `jitter`
    /// bounds a uniform per-frame addition to the server-side
    /// `extra_delay`. [`Impairment::NONE`] (the default) leaves the
    /// engine exactly as the clean build wires it.
    pub impairment: Impairment,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            server_delay: SimDuration::from_millis(50),
            capture_noise_ns: 0,
            server: ServerConfig::default(),
            seed: 1,
            server_link: LinkSpec::fast_ethernet(),
            server_shape: LinkShape::default(),
            cross_traffic: None,
            impairment: Impairment::NONE,
        }
    }
}

/// A UDP noise source: floods the server's echo port at a fixed rate for
/// a fixed duration.
pub(crate) struct NoiseSource {
    target: (Ipv4Addr, u16),
    interval: SimDuration,
    remaining: u64,
    payload: usize,
    port: u16,
}

impl NoiseSource {
    pub(crate) fn new(
        target: (Ipv4Addr, u16),
        interval: SimDuration,
        remaining: u64,
        payload: usize,
    ) -> NoiseSource {
        NoiseSource {
            target,
            interval,
            remaining,
            payload,
            port: 0,
        }
    }
}

impl bnm_tcp::HostApp for NoiseSource {
    fn on_boot(&mut self, ctx: &mut bnm_tcp::HostCtx) {
        self.port = ctx.udp_bind_ephemeral();
        if self.remaining > 0 {
            ctx.set_app_timer(self.interval, 0);
        }
    }
    fn on_event(&mut self, _: &mut bnm_tcp::HostCtx, _: bnm_tcp::SockEvent) {}
    fn on_timer(&mut self, ctx: &mut bnm_tcp::HostCtx, _token: u64) {
        ctx.udp_send(
            self.port,
            self.target,
            Bytes::from(vec![0xAAu8; self.payload]),
        );
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.set_app_timer(self.interval, 0);
        }
    }
}

/// A built testbed, ready to run one browser session.
pub struct Testbed {
    /// The simulation engine.
    pub engine: Engine,
    /// The client host node (carries the [`BrowserSession`]).
    pub client: NodeId,
    /// The server host node.
    pub server: NodeId,
    /// The switch node.
    pub switch: NodeId,
    /// The WinDump tap at the client's NIC.
    pub client_tap: TapId,
    /// A second tap at the server's NIC (for the server-side extension).
    pub server_tap: TapId,
    /// The server's access link (queue-drop and queue-depth gauges are
    /// read off it after a run).
    pub server_link: LinkId,
    trace: Trace,
}

impl Testbed {
    /// Build the Figure 2 testbed around a session (plan + profile +
    /// machine clock).
    pub fn build(
        cfg: &TestbedConfig,
        plan: ProbePlan,
        profile: BrowserProfile,
        machine: MachineTimer,
        rep_token: u64,
        session_seed: u64,
    ) -> Testbed {
        Self::build_traced(
            cfg,
            plan,
            profile,
            machine,
            rep_token,
            session_seed,
            Trace::disabled(),
        )
    }

    /// [`Testbed::build`] with a trace handle wired through the engine,
    /// the client host's TCP stack and the browser session.
    ///
    /// A thin wrapper: it builds a one-session [`Scenario`] (session
    /// id 0) and unwraps it, so the single-client testbed *is* the N = 1
    /// scenario — there is no second wiring path to drift out of sync.
    pub fn build_traced(
        cfg: &TestbedConfig,
        plan: ProbePlan,
        profile: BrowserProfile,
        machine: MachineTimer,
        rep_token: u64,
        session_seed: u64,
        trace: Trace,
    ) -> Testbed {
        let scenario = Scenario::build_traced(
            cfg,
            vec![SessionSpec {
                id: 0,
                plan,
                profile,
                machine,
                seed: session_seed,
            }],
            rep_token,
            trace,
        );
        let Scenario {
            engine,
            clients,
            server,
            switch,
            client_taps,
            server_tap,
            server_link,
            trace,
            session_ids: _,
        } = scenario;
        Testbed {
            engine,
            client: clients[0],
            server,
            switch,
            client_tap: client_taps[0],
            server_tap,
            server_link,
            trace,
        }
    }

    /// Extract the recorded trace data, if tracing was enabled. Takes
    /// `&mut self`: the buffer is moved out, and reading it back later
    /// would observe an empty trace.
    pub fn take_trace(&mut self) -> Option<TraceData> {
        self.trace.take()
    }

    /// Run to completion (with a generous horizon as a hang backstop) and
    /// return the finishing time.
    pub fn run(&mut self) -> SimTime {
        self.engine.run_until(SimTime::from_secs(300))
    }

    /// The client's session (read results after [`Testbed::run`]).
    pub fn session(&self) -> &BrowserSession {
        self.engine
            .node_ref::<Host<BrowserSession>>(self.client)
            .app()
    }

    /// The server application (stats).
    pub fn web_server(&self) -> &WebServer {
        self.engine.node_ref::<Host<WebServer>>(self.server).app()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_browser::{BrowserKind, ProbeTransport, Technology};
    use bnm_time::{OsKind, TimingApiKind};

    fn xhr_plan() -> ProbePlan {
        ProbePlan::new(
            "xhr_get",
            Technology::Native,
            ProbeTransport::HttpGet,
            TimingApiKind::JsDateGetTime,
        )
    }

    fn build_default() -> Testbed {
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let machine = MachineTimer::new(OsKind::Ubuntu1204, 7);
        Testbed::build(
            &TestbedConfig::default(),
            xhr_plan(),
            profile,
            machine,
            0,
            7,
        )
    }

    #[test]
    fn session_completes_and_taps_capture_traffic() {
        let mut tb = build_default();
        tb.run();
        assert!(tb.session().result().completed);
        assert!(!tb.engine.tap(tb.client_tap).is_empty());
        assert!(!tb.engine.tap(tb.server_tap).is_empty());
        // The server actually served: container page + 2 probes.
        assert_eq!(tb.web_server().stats.pages, 1);
        assert_eq!(tb.web_server().stats.gets, 2);
    }

    #[test]
    fn server_delay_shows_up_in_round_trips() {
        let mut tb = build_default();
        tb.run();
        let rounds = &tb.session().result().rounds;
        for r in rounds {
            assert!(r.browser_rtt_ms() > 50.0, "rtt {}", r.browser_rtt_ms());
        }
    }

    #[test]
    fn capture_noise_is_applied_when_configured() {
        let cfg = TestbedConfig {
            capture_noise_ns: 300_000,
            ..TestbedConfig::default()
        };
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let machine = MachineTimer::new(OsKind::Ubuntu1204, 7);
        let mut tb = Testbed::build(&cfg, xhr_plan(), profile, machine, 0, 7);
        tb.run();
        assert!(tb.session().result().completed);
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let trace = |seed: u64| {
            let profile = BrowserProfile::build(BrowserKind::Firefox, OsKind::Windows7).unwrap();
            let machine = MachineTimer::new(OsKind::Windows7, seed);
            let mut tb = Testbed::build(
                &TestbedConfig::default(),
                xhr_plan(),
                profile,
                machine,
                3,
                seed,
            );
            tb.run();
            tb.engine
                .tap(tb.client_tap)
                .records()
                .iter()
                .map(|r| (r.ts, r.frame.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43));
    }
}
