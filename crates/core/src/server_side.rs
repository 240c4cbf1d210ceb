//! Server-side overhead appraisal — the paper's §7 future-work item
//! ("another extension is to investigate the delay overhead incurred on
//! the server side"), implemented.
//!
//! The same capture-based methodology, mirrored: at the **server's** NIC,
//! a probe request is an `Rx` record and its response a `Tx` record. The
//! time between them, minus the configured handler delay, is the server
//! stack's own processing overhead — the bias the client-side RTT
//! subtraction silently absorbs.

use bnm_methods::MethodId;
use bnm_sim::capture::{CaptureBuffer, CaptureDir};
use bnm_sim::time::SimTime;

use crate::frames::{contains, payload_of};
use crate::matching::{request_marker, response_marker, MatchError};

/// Server-side timestamps of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTimes {
    /// Request arrival at the server NIC.
    pub request_rx: SimTime,
    /// Response departure from the server NIC.
    pub response_tx: SimTime,
}

impl ServerTimes {
    /// Total server turnaround, ms.
    pub fn turnaround_ms(&self) -> f64 {
        self.response_tx.signed_millis_since(self.request_rx)
    }

    /// Turnaround minus the configured application handler delay: the
    /// server stack's own overhead, ms.
    pub fn overhead_ms(&self, handler_delay_ms: f64) -> f64 {
        self.turnaround_ms() - handler_delay_ms
    }
}

/// Match one round in a **server-side** capture.
pub fn match_server_round(
    capture: &CaptureBuffer,
    method: MethodId,
    round: u8,
    token: u64,
) -> Result<ServerTimes, MatchError> {
    let req = request_marker(method, round, token);
    let resp = response_marker(method, round, token);
    let mut rx = None;
    let mut tx = None;
    for rec in capture.records() {
        let Some(payload) = payload_of(&rec.frame) else {
            continue;
        };
        match rec.dir {
            CaptureDir::Rx => {
                if rx.is_none() && contains(payload, &req) {
                    rx = Some(rec.ts);
                }
            }
            CaptureDir::Tx => {
                // Only accept a response after the request was seen —
                // echo transports reuse the same bytes in both directions.
                if rx.is_some() && tx.is_none() && contains(payload, &resp) {
                    tx = Some(rec.ts);
                }
            }
        }
        if rx.is_some() && tx.is_some() {
            break;
        }
    }
    match (rx, tx) {
        (None, _) => Err(MatchError::RequestNotFound),
        (_, None) => Err(MatchError::ResponseNotFound),
        (Some(r), Some(t)) => {
            if t < r {
                Err(MatchError::OutOfOrder)
            } else {
                Ok(ServerTimes {
                    request_rx: r,
                    response_tx: t,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentCell, RuntimeSel};
    use crate::runner::ExperimentRunner;
    use crate::testbed::{Testbed, TestbedConfig};
    use bnm_browser::{BrowserKind, BrowserProfile};
    use bnm_time::{MachineTimer, OsKind};

    #[test]
    fn server_turnaround_is_small_without_handler_delay() {
        let cell = ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        );
        let profile = ExperimentRunner::try_profile(&cell).unwrap();
        let machine = MachineTimer::new(cell.os, 5);
        let mut tb = Testbed::build(
            &TestbedConfig::default(),
            cell.method.plan(None),
            profile,
            machine,
            0,
            5,
        );
        tb.run();
        let cap = tb.engine.tap(tb.server_tap);
        for round in [1u8, 2] {
            let st = match_server_round(cap, MethodId::XhrGet, round, 0).unwrap();
            let t = st.turnaround_ms();
            // No handler delay configured: the server's stack answers in
            // well under a millisecond of virtual time.
            assert!((0.0..1.0).contains(&t), "round {round} turnaround {t}");
            assert!(st.overhead_ms(0.0) < 1.0);
        }
    }

    #[test]
    fn handler_delay_is_visible_and_subtractable() {
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let machine = MachineTimer::new(OsKind::Ubuntu1204, 5);
        let mut cfg = TestbedConfig::default();
        cfg.server.handler_delay = bnm_sim::time::SimDuration::from_millis(8);
        let mut tb = Testbed::build(&cfg, MethodId::XhrGet.plan(None), profile, machine, 0, 5);
        tb.run();
        let cap = tb.engine.tap(tb.server_tap);
        let st = match_server_round(cap, MethodId::XhrGet, 1, 0).unwrap();
        assert!(st.turnaround_ms() >= 8.0);
        let overhead = st.overhead_ms(8.0);
        assert!((0.0..1.0).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn echo_rounds_match_on_server_side_too() {
        let cell = ExperimentCell::paper(
            MethodId::JavaTcp,
            RuntimeSel::Browser(BrowserKind::Firefox),
            OsKind::Ubuntu1204,
        );
        let profile = ExperimentRunner::try_profile(&cell).unwrap();
        let machine = MachineTimer::new(cell.os, 6);
        let mut tb = Testbed::build(
            &TestbedConfig::default(),
            cell.method.plan(None),
            profile,
            machine,
            3,
            6,
        );
        tb.run();
        let cap = tb.engine.tap(tb.server_tap);
        let st = match_server_round(cap, MethodId::JavaTcp, 2, 3).unwrap();
        assert!(st.turnaround_ms() < 1.0);
    }
}
