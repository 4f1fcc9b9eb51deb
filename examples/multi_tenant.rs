//! Multi-tenancy: three tenants share one cluster. Quotas bound each
//! tenant's GPU footprint (a submit over quota is queued, and admitted
//! once the tenant's running jobs free their GPUs), API keys gate access
//! to jobs, and network policies isolate learners (arbitrary customer
//! code) from the platform and from each other (§II).
//!
//! Run with: `cargo run -p dlaas-examples --bin multi_tenant`

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{paths, ClientError, DlaasPlatform, JobStatus, Tenant, TrainingManifest};
use dlaas_examples::{banner, submit_blocking};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::{Sim, SimDuration};

fn manifest(name: &str, tenant: &str, gpus: u32, iters: u64) -> TrainingManifest {
    TrainingManifest::builder(name)
        .framework(Framework::TensorFlow)
        .model(DlModel::InceptionV3)
        .gpus(GpuKind::K80, gpus)
        .data(format!("{tenant}-data"), "d/", 3_000_000_000)
        .results(format!("{tenant}-results"))
        .iterations(iters)
        .build()
        .expect("valid manifest")
}

fn main() {
    banner("booting a shared platform for three tenants");
    let mut sim = Sim::new(11);
    let platform = DlaasPlatform::bootstrapped(&mut sim);
    for (tenant, quota) in [("acme", 4u32), ("globex", 2), ("initech", 8)] {
        platform
            .add_tenant(&Tenant::new(tenant, format!("{tenant}-key"), quota))
            .expect("bootstrap tenant insert");
        platform.seed_dataset(&format!("{tenant}-data"), "d/", 3_000_000_000);
        platform.create_bucket(&format!("{tenant}-results"));
        println!("tenant {tenant:<8} quota {quota} GPUs");
    }

    banner("each tenant submits a job; they run concurrently on one cluster");
    let acme = platform.client("acme-user", "acme-key");
    let globex = platform.client("globex-user", "globex-key");
    let initech = platform.client("initech-user", "initech-key");
    let j_acme = submit_blocking(&mut sim, &acme, manifest("a1", "acme", 2, 800));
    let j_globex = submit_blocking(&mut sim, &globex, manifest("g1", "globex", 2, 800));
    let j_initech = submit_blocking(&mut sim, &initech, manifest("i1", "initech", 4, 800));
    println!("jobs: {j_acme}, {j_globex}, {j_initech}");

    platform.wait_for_status(
        &mut sim,
        &j_acme,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    platform.wait_for_status(
        &mut sim,
        &j_globex,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    platform.wait_for_status(
        &mut sim,
        &j_initech,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );

    banner("isolation while all three train");
    let acme_learner = paths::learner_pod(&j_acme, 0);
    let globex_learner = paths::learner_pod(&j_globex, 0);
    println!(
        "acme learner -> platform API service:   {}",
        allowed(
            &platform,
            &acme_learner,
            None,
            Some(dlaas_core::API_SERVICE)
        )
    );
    println!(
        "acme learner -> globex learner:         {}",
        allowed(&platform, &acme_learner, Some(&globex_learner), None)
    );
    println!(
        "acme learner -> acme learner (own job): {}",
        allowed(
            &platform,
            &acme_learner,
            Some(&paths::learner_pod(&j_acme, 0)),
            None
        )
    );

    banner("quota enforcement: globex (2/2 GPUs in use) submits more");
    let queued: Rc<RefCell<Option<Result<_, ClientError>>>> = Rc::new(RefCell::new(None));
    let q = queued.clone();
    globex.submit(&mut sim, manifest("g2", "globex", 1, 100), move |_s, r| {
        *q.borrow_mut() = Some(r);
    });
    sim.run_for(SimDuration::from_secs(10));
    let verdict = queued.borrow().clone().expect("the submit is answered");
    let j_globex2 = verdict.expect("an over-quota submit is accepted and queued");
    let held = platform.job_status(&j_globex2);
    println!("second globex job: {j_globex2}, {held:?} while g1 holds the quota");
    assert_eq!(held, Some(JobStatus::Queued));

    banner("access control: acme cannot read globex's job");
    let stolen = Rc::new(RefCell::new(None));
    let s = stolen.clone();
    acme.status(&mut sim, j_globex.clone(), move |_s2, r| {
        *s.borrow_mut() = Some(r);
    });
    sim.run_for(SimDuration::from_secs(10));
    let verdict = stolen.borrow().clone().unwrap();
    println!("acme reading globex job: {verdict:?}");
    assert!(matches!(verdict, Err(ClientError::Rejected(ref m)) if m.contains("not found")));

    banner("g1 completes and frees globex's quota: g2 is admitted");
    let g1 = platform.wait_for_status(
        &mut sim,
        &j_globex,
        JobStatus::Completed,
        SimDuration::from_hours(8),
    );
    assert_eq!(g1, Some(JobStatus::Completed));
    let g2 = platform.wait_for_status(
        &mut sim,
        &j_globex2,
        JobStatus::Processing,
        SimDuration::from_mins(30),
    );
    println!("{j_globex2}: {g2:?}");
    assert_eq!(g2, Some(JobStatus::Processing));

    banner("all four jobs complete");
    for job in [&j_acme, &j_globex, &j_initech, &j_globex2] {
        let end = platform.wait_for_status(
            &mut sim,
            job,
            JobStatus::Completed,
            SimDuration::from_hours(8),
        );
        println!("{job}: {end:?}");
        assert_eq!(end, Some(JobStatus::Completed));
    }
}

fn allowed(
    platform: &DlaasPlatform,
    from: &str,
    to_pod: Option<&str>,
    to_service: Option<&str>,
) -> &'static str {
    if platform.kube().traffic_allowed(from, to_pod, to_service) {
        "ALLOWED"
    } else {
        "DENIED"
    }
}
