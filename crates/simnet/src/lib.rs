//! Deterministic discrete-event network simulator.
//!
//! This crate is the executable version of the paper's system model
//! (Section IV): a set `Π` of `n` processes "connected by reliable,
//! asynchronous channels". It also models the *eventually synchronous*
//! strengthening that Section II requires for detecting increasing timing
//! failures: after a configurable global stabilization time (GST), link
//! delays fall within a known bound.
//!
//! Design: **sans-io state machines under a deterministic scheduler.**
//! Protocol components implement [`Actor`] — they receive messages and
//! timer events through callbacks and emit sends/timer requests through a
//! [`Context`]. The [`Simulation`] owns a single seeded RNG and a
//! time-ordered event queue, so every run is exactly reproducible from its
//! seed, including adversarial schedules.
//!
//! Faults are injected at three levels:
//!
//! * **Link faults** ([`Simulation::set_link`]) drop, delay, duplicate or
//!   reorder messages on individual links — the per-link omission and
//!   timing failures of the paper's failure classification (Section II).
//! * **Process lifecycle faults**: benign crashes ([`Simulation::crash`])
//!   with crash-recovery ([`Simulation::restart`] + [`Actor::on_recover`]),
//!   and gray-failure pauses ([`Simulation::pause`] /
//!   [`Simulation::resume`]) that freeze a process without killing it.
//! * **Byzantine actors** are ordinary [`Actor`] implementations that send
//!   whatever they like; the signature scheme in `qsel-types` keeps them
//!   from impersonating correct processes.
//!
//! All of the above can be scripted ahead of time as a [`FaultPlan`] — a
//! time-ordered fault schedule executed deterministically by the event
//! loop, making every chaotic execution reproducible from
//! `(seed, plan)` alone. See the [`fault`] module docs.
//!
//! # Example
//!
//! ```
//! use qsel_simnet::{Actor, Context, Simulation, SimConfig, SimDuration, TimerId};
//! use qsel_types::ProcessId;
//!
//! struct Echo;
//! impl Actor<String> for Echo {
//!     fn on_start(&mut self, ctx: &mut Context<'_, String>) {
//!         if ctx.me() == ProcessId(1) {
//!             ctx.send(ProcessId(2), "ping".to_owned());
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, String>, from: ProcessId, msg: String) {
//!         if msg == "ping" {
//!             ctx.send(from, "pong".to_owned());
//!         }
//!     }
//!     fn on_timer(&mut self, _: &mut Context<'_, String>, _: TimerId) {}
//! }
//!
//! let mut sim = Simulation::new(SimConfig::new(2, 7), vec![Echo, Echo]);
//! sim.run_to_quiescence();
//! assert_eq!(sim.stats().messages_delivered, 2);
//! ```

#![warn(missing_docs)]

mod delay;
mod event;
pub mod fault;
mod sim;
mod time;

pub use delay::DelayModel;
pub use event::TimerId;
pub use fault::{FaultEvent, FaultPlan};
pub use sim::{Actor, Context, LinkState, NetStats, SimConfig, Simulation};
pub use time::{SimDuration, SimTime};
