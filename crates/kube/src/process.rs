//! The container-process model.
//!
//! When the simulated kubelet starts a container, it instantiates the
//! container's registered *behavior*: a factory closure that wires the
//! process into the world (registers RPC handlers, arms timers, opens
//! mounts) and returns a cleanup closure run when the process stops.
//!
//! Crash semantics are the heart of the dependability reproduction: a
//! crash flips the process's liveness flag and runs its cleanup, so every
//! bit of volatile state dies with it. A restarted container gets a fresh
//! instance from the factory with a new incarnation id.
//!
//! What a process *acquires* from a substrate (an etcd client's watch
//! endpoint, say) is released the same way whatever the behaviour does:
//! the acquiring call registers the release with
//! [`ProcessCtx::on_teardown`] and the kubelet runs it, once, right after
//! the behaviour's cleanup — so no component has to remember to.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use dlaas_net::SharedLink;
use dlaas_sim::Sim;

/// Handle a behavior uses to interact with its pod.
#[derive(Clone)]
pub struct ProcessCtx {
    /// Pod name.
    pub pod: String,
    /// Container name.
    pub container: String,
    /// Node the pod runs on.
    pub node: String,
    /// Incarnation id: unique per (re)start of this container.
    pub incarnation: u64,
    /// Opaque argument from the container spec (e.g. the job id).
    pub arg: String,
    /// Liveness flag: `false` once the process has been stopped/crashed.
    /// Timers owned by the behavior must check this before acting.
    alive: Rc<Cell<bool>>,
    /// The node's NIC (for bulk transfers).
    pub nic: SharedLink,
    /// Exit hook into the cluster (set by the kubelet).
    exit: Rc<RefCell<Option<ExitHook>>>,
    /// Releases registered by [`ProcessCtx::on_teardown`], taken by the
    /// kubelet when it runs them.
    teardown: Rc<RefCell<Vec<Cleanup>>>,
}

type ExitHook = Box<dyn FnOnce(&mut Sim, i32)>;

impl fmt::Debug for ProcessCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessCtx")
            .field("pod", &self.pod)
            .field("container", &self.container)
            .field("node", &self.node)
            .field("incarnation", &self.incarnation)
            .field("alive", &self.alive.get())
            .finish()
    }
}

impl ProcessCtx {
    pub(crate) fn new(
        pod: String,
        container: String,
        node: String,
        incarnation: u64,
        arg: String,
        nic: SharedLink,
        exit: impl FnOnce(&mut Sim, i32) + 'static,
    ) -> Self {
        ProcessCtx {
            pod,
            container,
            node,
            incarnation,
            arg,
            alive: Rc::new(Cell::new(true)),
            nic,
            exit: Rc::new(RefCell::new(Some(Box::new(exit)))),
            teardown: Rc::default(),
        }
    }

    /// `true` until the process is stopped or crashes.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// The liveness flag itself, for capture in timers.
    pub fn alive_flag(&self) -> Rc<Cell<bool>> {
        self.alive.clone()
    }

    pub(crate) fn kill(&self) {
        self.alive.set(false);
        // A dead process can no longer exit voluntarily.
        self.exit.borrow_mut().take();
    }

    /// Terminates the process voluntarily with `code` (0 = success). The
    /// kubelet observes the exit and applies the pod's restart policy.
    /// No-op if the process is already dead or has already exited.
    pub fn exit(&self, sim: &mut Sim, code: i32) {
        if !self.is_alive() {
            return;
        }
        let hook = self.exit.borrow_mut().take();
        if let Some(hook) = hook {
            self.alive.set(false);
            hook(sim, code);
        }
    }

    /// Registers `release` to run when this process stops — voluntary
    /// exit, kill or pod deletion — right after the behaviour's own
    /// [`Cleanup`], in registration order, exactly once. This is how a
    /// resource handed to a process (see `dlaas_core::Handles::etcd_client`)
    /// is owned by it: the release cannot be forgotten and cannot outlive
    /// the incarnation. Register while the process runs (behaviours do
    /// from their factory): on one already torn down there is no later
    /// moment, and `release` never runs.
    pub fn on_teardown(&self, release: impl FnOnce(&mut Sim) + 'static) {
        self.teardown.borrow_mut().push(Box::new(release));
    }

    /// Runs the registered releases (kubelet only; a second call finds
    /// none).
    pub(crate) fn run_teardown(&self, sim: &mut Sim) {
        let hooks = std::mem::take(&mut *self.teardown.borrow_mut());
        for release in hooks {
            release(sim);
        }
    }
}

/// Cleanup closure returned by a behavior factory; run when the process
/// stops (crash, completion, or pod deletion).
pub type Cleanup = Box<dyn FnOnce(&mut Sim)>;

/// A behavior factory: starts the process and returns its cleanup.
pub type BehaviorFactory = Rc<dyn Fn(&mut Sim, ProcessCtx) -> Cleanup>;

/// Registry mapping behavior names (from [`crate::ContainerSpec`]) to
/// factories. Cloning shares the registry.
#[derive(Clone, Default)]
pub struct BehaviorRegistry {
    factories: Rc<RefCell<BTreeMap<String, BehaviorFactory>>>,
}

impl fmt::Debug for BehaviorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.factories.borrow().keys().cloned().collect();
        f.debug_struct("BehaviorRegistry")
            .field("behaviors", &names)
            .finish()
    }
}

impl BehaviorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a behavior.
    pub fn register(
        &self,
        name: impl Into<String>,
        factory: impl Fn(&mut Sim, ProcessCtx) -> Cleanup + 'static,
    ) {
        self.factories
            .borrow_mut()
            .insert(name.into(), Rc::new(factory));
    }

    /// Registers a behavior that does nothing and never exits (a pause
    /// container) — useful for tests and placeholders.
    pub fn register_noop(&self, name: impl Into<String>) {
        self.register(name, |_sim, _ctx| Box::new(|_sim| {}));
    }

    /// Drops every factory: what a world's end runs (`Sim::at_end`), since
    /// a factory holds the handles of the platform that holds this
    /// registry.
    pub fn clear(&self) {
        let dropped = std::mem::take(&mut *self.factories.borrow_mut());
        drop(dropped);
    }

    /// Looks up a factory.
    pub fn get(&self, name: &str) -> Option<BehaviorFactory> {
        self.factories.borrow().get(name).cloned()
    }

    /// Registered behavior names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.factories.borrow().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(exit_codes: Rc<RefCell<Vec<i32>>>) -> ProcessCtx {
        ProcessCtx::new(
            "pod-1".into(),
            "main".into(),
            "node-1".into(),
            1,
            "arg".into(),
            SharedLink::new(1e9),
            move |_sim, code| exit_codes.borrow_mut().push(code),
        )
    }

    #[test]
    fn exit_fires_hook_once() {
        let mut sim = Sim::new(1);
        let codes = Rc::new(RefCell::new(Vec::new()));
        let c = ctx(codes.clone());
        assert!(c.is_alive());
        c.exit(&mut sim, 0);
        assert!(!c.is_alive());
        c.exit(&mut sim, 1); // second exit ignored
        assert_eq!(*codes.borrow(), vec![0]);
    }

    #[test]
    fn killed_process_cannot_exit() {
        let mut sim = Sim::new(1);
        let codes = Rc::new(RefCell::new(Vec::new()));
        let c = ctx(codes.clone());
        c.kill();
        assert!(!c.is_alive());
        c.exit(&mut sim, 0);
        assert!(codes.borrow().is_empty());
    }

    #[test]
    fn alive_flag_is_shared() {
        let codes = Rc::new(RefCell::new(Vec::new()));
        let c = ctx(codes);
        let flag = c.alive_flag();
        assert!(flag.get());
        c.kill();
        assert!(!flag.get());
    }

    #[test]
    fn registry_register_and_lookup() {
        let reg = BehaviorRegistry::new();
        assert!(reg.get("x").is_none());
        reg.register_noop("pause");
        let started = Rc::new(Cell::new(false));
        let s = started.clone();
        reg.register("svc", move |_sim, _ctx| {
            s.set(true);
            Box::new(|_sim| {})
        });
        assert_eq!(reg.names(), vec!["pause", "svc"]);

        let mut sim = Sim::new(1);
        let codes = Rc::new(RefCell::new(Vec::new()));
        let factory = reg.get("svc").unwrap();
        let _cleanup = factory(&mut sim, ctx(codes));
        assert!(started.get());
    }
}
