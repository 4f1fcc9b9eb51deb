//! Property-based lifecycle checking: random crash schedules against a
//! live job must never violate the platform's dependability invariants —
//! monotone status, eventual terminal state, and atomic cleanup.

use std::cell::RefCell;
use std::rc::Rc;

use dlaas_core::{paths, DlaasPlatform, JobId, JobStatus, Tenant, TrainingManifest};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use dlaas_sim::{Sim, SimDuration};
use proptest::prelude::*;

const KEY: &str = "prop-key";

#[derive(Debug, Clone, Copy)]
enum Victim {
    Api,
    Lcm,
    Guardian,
    Helper,
    Learner,
    EtcdNode(u8),
    Mongo,
}

fn victim_strategy() -> impl Strategy<Value = Victim> {
    prop_oneof![
        Just(Victim::Api),
        Just(Victim::Lcm),
        Just(Victim::Guardian),
        Just(Victim::Helper),
        Just(Victim::Learner),
        (0..3u8).prop_map(Victim::EtcdNode),
        Just(Victim::Mongo),
    ]
}

fn crash(sim: &mut Sim, platform: &DlaasPlatform, job: &JobId, v: Victim) {
    match v {
        Victim::Api => {
            platform.kube().crash_pod(sim, "dlaas-api-0");
        }
        Victim::Lcm => {
            platform.kube().crash_pod(sim, "dlaas-lcm-0");
        }
        Victim::Guardian => {
            platform.kube().crash_pod(sim, &paths::guardian_job(job));
        }
        Victim::Helper => {
            platform.kube().crash_pod(sim, &paths::helper_pod(job));
        }
        Victim::Learner => {
            platform.kube().crash_pod(sim, &paths::learner_pod(job, 0));
        }
        Victim::EtcdNode(i) => {
            let id = (i % 3) as u32;
            if platform.etcd().raft().node(id).is_alive() {
                platform.etcd().crash(sim, id);
                // Auto-heal after a bit, as an operator would.
                sim.schedule_in(SimDuration::from_secs(20), {
                    let etcd = platform.etcd().clone();
                    move |sim| {
                        if !etcd.raft().node(id).is_alive() {
                            etcd.restart(sim, id);
                        }
                    }
                });
            }
        }
        Victim::Mongo => {
            platform.crash_mongo(sim, Some(SimDuration::from_secs(4)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 20,
    })]

    #[test]
    fn any_crash_schedule_preserves_lifecycle_invariants(
        seed in 0..u64::MAX,
        faults in proptest::collection::vec((victim_strategy(), 10..240u16), 1..6),
    ) {
        let mut sim = Sim::new(seed);
        let platform = DlaasPlatform::bootstrapped(&mut sim);
        platform.add_tenant(&Tenant::new("prop", KEY, 0)).expect("bootstrap tenant insert");
        platform.seed_dataset("prop-data", "d/", 1_000_000_000);
        platform.create_bucket("prop-results");
        let manifest = TrainingManifest::builder("prop-job")
            .framework(Framework::TensorFlow)
            .model(DlModel::Resnet50)
            .gpus(GpuKind::K80, 1)
            .data("prop-data", "d/", 1_000_000_000)
            .results("prop-results")
            .iterations(400)
            .checkpoint_every(100)
            .build()
            .unwrap();
        let client = platform.client("prop", KEY);
        let got: Rc<RefCell<Option<JobId>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.submit(&mut sim, manifest, move |_s, r| {
            *g.borrow_mut() = Some(r.expect("accepted"));
        });
        sim.run_until_pred(|_| got.borrow().is_some());
        let job = got.borrow().clone().unwrap();

        // Apply the fault schedule while watching status monotonicity.
        let mut last_rank = 0u8;
        for (victim, delay_s) in faults {
            sim.run_for(SimDuration::from_secs(delay_s as u64));
            crash(&mut sim, &platform, &job, victim);
            if let Some(s) = platform.job_status(&job) {
                prop_assert!(s.rank() >= last_rank, "status went backwards");
                last_rank = s.rank();
            }
        }

        // Eventually terminal (COMPLETED here: single-learner crashes are
        // all within the restart budget given only ≤5 faults).
        let end = platform.wait_for_status(
            &mut sim,
            &job,
            JobStatus::Completed,
            SimDuration::from_hours(12),
        );
        prop_assert!(
            end.is_some_and(dlaas_core::JobStatus::is_terminal),
            "job must reach a terminal state, got {end:?}"
        );
        prop_assert!(end.unwrap().rank() >= last_rank);

        // Atomic cleanup at quiescence: no job resources left behind.
        sim.run_for(SimDuration::from_mins(3));
        let leftovers = platform
            .kube()
            .pods_matching(&dlaas_kube::labels! {"job" => job.as_str()});
        prop_assert!(leftovers.is_empty(), "leaked pods: {leftovers:?}");
        prop_assert!(
            platform.nfs().find_volume(&paths::volume(&job)).is_none(),
            "leaked volume"
        );

        // History well-formed: monotone ranks and timestamps.
        let info = platform.job_info(&job).unwrap();
        for w in info.history.windows(2) {
            prop_assert!(w[0].0.rank() < w[1].0.rank(), "history rank order");
            prop_assert!(w[0].1 <= w[1].1, "history timestamp order");
        }
    }
}
