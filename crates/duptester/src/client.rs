//! The harness's client: the one path every op a case sends and every reply
//! it gets take, and the one place the replies that can be evidence are
//! recorded for the oracle.

use crate::faults::FaultDriver;
use crate::oracle::{self, OpResult};
use bytes::Bytes;
use dup_core::ClientOp;
use dup_simnet::{ClientHandle, NodeId, Sim, SimDuration, SimTime};
use std::collections::VecDeque;

/// How long an op waits for its reply before it counts as unanswered.
pub(crate) const OP_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// One client op in flight.
struct Pending {
    handle: ClientHandle,
    /// Send time plus [`OP_TIMEOUT`].
    deadline: SimTime,
    node: NodeId,
    /// The command sent, kept so an op that turns out to be evidence can
    /// name it.
    command: String,
    after_upgrade_started: bool,
    in_after_phase: bool,
}

/// The harness's client. An op is sent with [`Sim::client_send`] without
/// waiting and joins the in-flight set; it settles when its reply arrives
/// or, unanswered, at its deadline. The set is in send order and every op
/// waits the same [`OP_TIMEOUT`], so deadlines rise from front to back and
/// only the front can be due. An op is sent by value: its command moves in,
/// and on to the evidence log if the settled op can be evidence
/// ([`oracle::can_be_evidence`]); the others cost no reply conversion.
#[derive(Default)]
pub(crate) struct Client {
    in_flight: VecDeque<Pending>,
    /// The settled ops that can be evidence, in send order, for the oracle.
    pub(crate) evidence: Vec<OpResult>,
}

impl Client {
    /// Forgets every op, in flight or settled. Every case starts with this,
    /// so a case that panicked mid-step leaves the next one nothing.
    pub(crate) fn clear(&mut self) {
        self.in_flight.clear();
        self.evidence.clear();
    }

    /// Sends `op` now and returns its deadline.
    pub(crate) fn send(
        &mut self,
        sim: &mut Sim,
        op: ClientOp,
        after_upgrade_started: bool,
        in_after_phase: bool,
    ) -> SimTime {
        let request = Bytes::copy_from_slice(op.command.as_bytes());
        let deadline = sim.now() + OP_TIMEOUT;
        self.in_flight.push_back(Pending {
            handle: sim.client_send(op.node, request),
            deadline,
            node: op.node,
            command: op.command,
            after_upgrade_started,
            in_after_phase,
        });
        deadline
    }

    /// Settles the oldest op in flight if its reply is in or its deadline
    /// is no later than `until`. In the second case the simulator runs,
    /// pumped, to the reply or to the deadline, whichever comes first.
    /// Returns whether the op was answered, or `None` if none settled.
    fn settle_oldest(
        &mut self,
        driver: &FaultDriver<'_>,
        sim: &mut Sim,
        until: SimTime,
    ) -> Option<bool> {
        let &Pending {
            handle, deadline, ..
        } = self.in_flight.front()?;
        let mut reply = sim.poll_response(handle);
        if reply.is_none() {
            if deadline > until {
                return None;
            }
            let answered = |sim: &mut Sim| {
                reply = sim.poll_response(handle);
                reply.is_some()
            };
            if !driver.step_until(sim, deadline, answered) {
                reply = sim.poll_response(handle);
            }
        }
        let op = self.in_flight.pop_front().expect("the oldest op settled");
        let response = reply.as_deref();
        if oracle::can_be_evidence(op.after_upgrade_started, op.in_after_phase, response) {
            self.evidence.push(OpResult {
                command: op.command,
                node: op.node,
                response: response.map(|b| String::from_utf8_lossy(b).into_owned()),
                after_upgrade_started: op.after_upgrade_started,
                in_after_phase: op.in_after_phase,
            });
        }
        Some(response.is_some())
    }

    /// Settles ops oldest first for as long as the oldest is answered or due
    /// by `until`.
    pub(crate) fn settle(&mut self, driver: &FaultDriver<'_>, sim: &mut Sim, until: SimTime) {
        while self.settle_oldest(driver, sim, until).is_some() {}
    }

    /// Settles every op in flight: returns once each has a reply or has
    /// expired.
    pub(crate) fn drain(&mut self, driver: &FaultDriver<'_>, sim: &mut Sim) {
        if let Some(last) = self.in_flight.back().map(|op| op.deadline) {
            self.settle(driver, sim, last);
        }
    }

    /// Runs one op to completion — an in-flight set of one — and returns
    /// whether it was answered.
    pub(crate) fn run(
        &mut self,
        driver: &FaultDriver<'_>,
        sim: &mut Sim,
        op: ClientOp,
        after_upgrade_started: bool,
        in_after_phase: bool,
    ) -> bool {
        debug_assert!(self.in_flight.is_empty(), "ops are still in flight");
        let deadline = self.send(sim, op, after_upgrade_started, in_after_phase);
        self.settle_oldest(driver, sim, deadline) == Some(true)
    }

    /// Runs `batch` one op after another, taking each op's command.
    pub(crate) fn run_all(
        &mut self,
        driver: &FaultDriver<'_>,
        sim: &mut Sim,
        batch: &mut [ClientOp],
        after_upgrade_started: bool,
        in_after_phase: bool,
    ) {
        for op in batch {
            self.run(
                driver,
                sim,
                take_op(op),
                after_upgrade_started,
                in_after_phase,
            );
        }
    }
}

/// Moves `op` out of a pooled batch, leaving an empty command behind: each
/// pooled op is sent once, and its buffer is refilled before the next case.
pub(crate) fn take_op(op: &mut ClientOp) -> ClientOp {
    ClientOp::new(op.node, std::mem::take(&mut op.command))
}
