//! Shared helpers for the DLaaS examples.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{DlaasClient, JobId, TrainingManifest};
use dlaas_sim::Sim;

/// Submits a manifest and blocks (in simulated time) until the ACK,
/// returning the assigned job id.
pub fn submit_blocking(sim: &mut Sim, client: &DlaasClient, manifest: TrainingManifest) -> JobId {
    let got: Rc<RefCell<Option<Result<JobId, dlaas_core::ClientError>>>> =
        Rc::new(RefCell::new(None));
    let g = got.clone();
    client.submit(sim, manifest, move |_s, r| *g.borrow_mut() = Some(r));
    sim.run_until_pred(|_| got.borrow().is_some());
    let r = got.borrow().clone().expect("callback fired");
    r.expect("submission accepted")
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n━━━ {title} ━━━");
}
