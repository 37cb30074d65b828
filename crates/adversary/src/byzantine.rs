//! Network-level Byzantine actors for `qsel-simnet` clusters.
//!
//! Omission and timing failures on individual links are injected with
//! [`qsel_simnet::LinkState`] (dropping or delaying a correct process's
//! traffic is observationally identical to the sender omitting/delaying
//! it). The actors here cover the misbehaviours that are *not* expressible
//! as link faults:
//!
//! * [`MuteProcess`] — sends nothing at all (the "mute"/"quiet" processes
//!   of the related work discussed in Section III).
//! * [`FalseAccuser`] — runs the honest protocol but additionally
//!   broadcasts correctly-signed `UPDATE` rows containing fabricated
//!   suspicions against chosen victims. Note that a signed row can only
//!   fabricate suspicions *by the accuser*, so every fabricated edge is
//!   incident to a faulty process — exactly the power the paper's
//!   adversary model grants.
//!
//! [`ClusterActor`] is the dispatch enum used to mix honest and Byzantine
//! behaviour in one simulation.

use qsel::messages::UpdateRow;
use qsel::node::{NodeConfig, SelectorNode, ServiceMsg};
use qsel_simnet::{Actor, Context, SimDuration, TimerId};
use qsel_types::crypto::{Keychain, Signer};
use qsel_types::{ClusterConfig, Epoch, ProcessId};

/// A process that never sends anything (repeated omission of everything).
#[derive(Debug, Default)]
pub struct MuteProcess;

impl Actor<ServiceMsg> for MuteProcess {
    fn on_start(&mut self, _ctx: &mut Context<'_, ServiceMsg>) {}
    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, ServiceMsg>,
        _from: ProcessId,
        _msg: ServiceMsg,
    ) {
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, ServiceMsg>, _timer: TimerId) {}
}

const TIMER_ACCUSE: TimerId = TimerId(100);

/// Runs the honest node, plus periodic fabricated suspicions against the
/// configured victims.
#[derive(Debug)]
pub struct FalseAccuser {
    inner: SelectorNode,
    signer: Signer,
    cfg: ClusterConfig,
    victims: Vec<ProcessId>,
    period: SimDuration,
    row: Vec<Epoch>,
    /// Number of forged UPDATE broadcasts sent.
    pub accusations_sent: u64,
}

impl FalseAccuser {
    /// A false accuser at `me` targeting `victims`, forging an accusation
    /// every `period`.
    pub fn new(
        cfg: ClusterConfig,
        me: ProcessId,
        chain: &Keychain,
        node_cfg: NodeConfig,
        victims: Vec<ProcessId>,
        period: SimDuration,
    ) -> Self {
        FalseAccuser {
            inner: SelectorNode::new_quorum(cfg, me, chain, node_cfg),
            signer: chain.signer(me),
            cfg,
            victims,
            period,
            row: vec![Epoch::NEVER; cfg.n() as usize],
            accusations_sent: 0,
        }
    }

    /// The wrapped (honestly-behaving) node, for inspection.
    pub fn inner(&self) -> &SelectorNode {
        &self.inner
    }

    fn accuse(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        // Stamp every victim at our current epoch so the fabricated
        // suspicions are visible in the current suspect graph.
        let epoch = self.inner.epoch();
        for v in &self.victims {
            let cell = &mut self.row[v.index()];
            if epoch > *cell {
                *cell = epoch;
            }
        }
        let forged = self.signer.sign(UpdateRow {
            row: self.row.clone(),
        });
        let me = self.signer.id();
        let peers: Vec<ProcessId> = self.cfg.processes().filter(|p| *p != me).collect();
        ctx.send_all(peers, ServiceMsg::Update(forged));
        self.accusations_sent += 1;
        ctx.set_timer(self.period, TIMER_ACCUSE);
    }
}

impl Actor<ServiceMsg> for FalseAccuser {
    fn on_start(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        self.inner.on_start(ctx);
        self.accuse(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ServiceMsg>, from: ProcessId, msg: ServiceMsg) {
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ServiceMsg>, timer: TimerId) {
        if timer == TIMER_ACCUSE {
            self.accuse(ctx);
        } else {
            self.inner.on_timer(ctx, timer);
        }
    }
}

/// A simulation participant: honest or one of the Byzantine behaviours.
#[derive(Debug)]
pub enum ClusterActor {
    /// A correct process.
    Honest(SelectorNode),
    /// A mute process.
    Mute(MuteProcess),
    /// A false accuser.
    Accuser(FalseAccuser),
}

impl ClusterActor {
    /// The honest node inside, if this actor has one.
    pub fn node(&self) -> Option<&SelectorNode> {
        match self {
            ClusterActor::Honest(n) => Some(n),
            ClusterActor::Accuser(a) => Some(a.inner()),
            ClusterActor::Mute(_) => None,
        }
    }
}

impl Actor<ServiceMsg> for ClusterActor {
    fn on_start(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        match self {
            ClusterActor::Honest(n) => n.on_start(ctx),
            ClusterActor::Mute(m) => m.on_start(ctx),
            ClusterActor::Accuser(a) => a.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ServiceMsg>, from: ProcessId, msg: ServiceMsg) {
        match self {
            ClusterActor::Honest(n) => n.on_message(ctx, from, msg),
            ClusterActor::Mute(m) => m.on_message(ctx, from, msg),
            ClusterActor::Accuser(a) => a.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ServiceMsg>, timer: TimerId) {
        match self {
            ClusterActor::Honest(n) => n.on_timer(ctx, timer),
            ClusterActor::Mute(m) => m.on_timer(ctx, timer),
            ClusterActor::Accuser(a) => a.on_timer(ctx, timer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsel_simnet::{SimConfig, SimTime, Simulation};

    fn honest(cfg: ClusterConfig, p: ProcessId, chain: &Keychain) -> ClusterActor {
        ClusterActor::Honest(SelectorNode::new_quorum(
            cfg,
            p,
            chain,
            NodeConfig::default(),
        ))
    }

    #[test]
    fn mute_process_gets_excluded() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let chain = Keychain::new(&cfg, 17);
        let actors: Vec<ClusterActor> = cfg
            .processes()
            .map(|p| {
                if p == ProcessId(3) {
                    ClusterActor::Mute(MuteProcess)
                } else {
                    honest(cfg, p, &chain)
                }
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::new(4, 17), actors);
        sim.run_until(SimTime::from_micros(200_000));
        for p in [1, 2, 4].map(ProcessId) {
            let q = sim.actor(p).node().unwrap().current_plain_quorum().unwrap();
            assert!(!q.contains(ProcessId(3)), "at {p}: {q}");
        }
    }

    #[test]
    fn false_accuser_can_push_a_correct_victim_out() {
        // p1 fabricates suspicions against p2. The suspicion edge (1,2)
        // keeps them from sharing a quorum; the lexicographically first
        // independent set is {1,3,4} — the *correct* victim is excluded.
        // The paper explicitly allows this: quorums need not contain only
        // correct processes, they only need to be suspicion-free.
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let chain = Keychain::new(&cfg, 23);
        let actors: Vec<ClusterActor> = cfg
            .processes()
            .map(|p| {
                if p == ProcessId(1) {
                    ClusterActor::Accuser(FalseAccuser::new(
                        cfg,
                        p,
                        &chain,
                        NodeConfig::default(),
                        vec![ProcessId(2)],
                        SimDuration::millis(10),
                    ))
                } else {
                    honest(cfg, p, &chain)
                }
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::new(4, 23), actors);
        sim.run_until(SimTime::from_micros(100_000));
        for p in [2, 3, 4].map(ProcessId) {
            let q = sim.actor(p).node().unwrap().current_plain_quorum().unwrap();
            assert!(
                !(q.contains(ProcessId(1)) && q.contains(ProcessId(2))),
                "suspicion edge inside quorum at {p}: {q}"
            );
        }
    }

    #[test]
    fn accuser_counts_forgeries() {
        let cfg = ClusterConfig::new(4, 1).unwrap();
        let chain = Keychain::new(&cfg, 29);
        let mut acc = FalseAccuser::new(
            cfg,
            ProcessId(1),
            &chain,
            NodeConfig::default(),
            vec![ProcessId(2)],
            SimDuration::millis(1),
        );
        assert_eq!(acc.accusations_sent, 0);
        let actors = vec![
            ClusterActor::Accuser(std::mem::replace(
                &mut acc,
                FalseAccuser::new(
                    cfg,
                    ProcessId(1),
                    &chain,
                    NodeConfig::default(),
                    vec![],
                    SimDuration::millis(1),
                ),
            )),
            honest(cfg, ProcessId(2), &chain),
            honest(cfg, ProcessId(3), &chain),
            honest(cfg, ProcessId(4), &chain),
        ];
        let mut sim = Simulation::new(SimConfig::new(4, 29), actors);
        sim.run_until(SimTime::from_micros(20_000));
        let ClusterActor::Accuser(a) = sim.actor(ProcessId(1)) else {
            panic!("actor 1 is the accuser");
        };
        assert!(a.accusations_sent >= 10);
    }
}
