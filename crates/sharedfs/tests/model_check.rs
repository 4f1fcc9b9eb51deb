//! Property-based model checking of the NFS service against a naive map
//! of volumes → files → lines, under random op sequences including
//! volume deletion (stale mounts) and recreation; and of parked pollers
//! against the polling loops they replace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_sharedfs::{Mount, NfsError, NfsServer};
use dlaas_sim::{Grid, Sim, SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    CreateVolume(u8),
    DeleteVolume(u8),
    Append { vol: u8, file: u8, line: u16 },
    WriteFile { vol: u8, file: u8, content: u16 },
    Remove { vol: u8, file: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..4u8).prop_map(Op::CreateVolume),
        1 => (0..4u8).prop_map(Op::DeleteVolume),
        5 => (0..4u8, 0..6u8, any::<u16>()).prop_map(|(vol, file, line)| Op::Append { vol, file, line }),
        3 => (0..4u8, 0..6u8, any::<u16>()).prop_map(|(vol, file, content)| Op::WriteFile { vol, file, content }),
        1 => (0..4u8, 0..6u8).prop_map(|(vol, file)| Op::Remove { vol, file }),
    ]
}

type Model = BTreeMap<String, BTreeMap<String, Vec<String>>>;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    #[test]
    fn nfs_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let mut model: Model = BTreeMap::new();

        for op in ops {
            match op {
                Op::CreateVolume(v) => {
                    let name = format!("v{v}");
                    nfs.create_volume(&name);
                    model.entry(name).or_default();
                }
                Op::DeleteVolume(v) => {
                    let name = format!("v{v}");
                    let existed_model = model.remove(&name).is_some();
                    let existed_real = nfs.delete_volume_named(&name);
                    prop_assert_eq!(existed_real, existed_model);
                }
                Op::Append { vol, file, line } => {
                    let vname = format!("v{vol}");
                    let fname = format!("f{file}");
                    let text = format!("line-{line}");
                    let result = nfs
                        .find_volume(&vname)
                        .and_then(|id| nfs.mount(&id).ok())
                        .map(|m| m.append_line(&mut sim, &fname, text.clone()));
                    match model.get_mut(&vname) {
                        Some(files) => {
                            prop_assert_eq!(result, Some(Ok(())));
                            files.entry(fname).or_default().push(text);
                        }
                        None => prop_assert!(result.is_none(), "append to missing volume"),
                    }
                }
                Op::WriteFile { vol, file, content } => {
                    let vname = format!("v{vol}");
                    let fname = format!("f{file}");
                    let text = format!("content-{content}");
                    let result = nfs
                        .find_volume(&vname)
                        .and_then(|id| nfs.mount(&id).ok())
                        .map(|m| m.write_file(&mut sim, &fname, text.clone()));
                    match model.get_mut(&vname) {
                        Some(files) => {
                            prop_assert_eq!(result, Some(Ok(())));
                            files.insert(fname, vec![text]);
                        }
                        None => prop_assert!(result.is_none()),
                    }
                }
                Op::Remove { vol, file } => {
                    let vname = format!("v{vol}");
                    let fname = format!("f{file}");
                    let removed_real = nfs
                        .find_volume(&vname)
                        .and_then(|id| nfs.mount(&id).ok())
                        .map(|m| m.remove(&mut sim, &fname))
                        .unwrap_or(false);
                    let removed_model = model
                        .get_mut(&vname)
                        .map(|files| files.remove(&fname).is_some())
                        .unwrap_or(false);
                    prop_assert_eq!(removed_real, removed_model);
                }
            }

            // Full-state equivalence after every op.
            for (vname, files) in &model {
                let id = nfs.find_volume(vname);
                prop_assert!(id.is_some(), "volume {} missing", vname);
                let mount = nfs.mount(&id.unwrap()).unwrap();
                let listed = mount.list("");
                let expect: Vec<&String> = files.keys().collect();
                prop_assert_eq!(listed.len(), expect.len(), "file count in {}", vname);
                for (fname, lines) in files {
                    prop_assert_eq!(
                        &mount.read_lines_from(fname, 0).unwrap(),
                        lines,
                        "contents of {}/{}", vname, fname
                    );
                    prop_assert_eq!(mount.line_count(fname), lines.len());
                    // Tail reads agree with slicing the model.
                    if lines.len() > 1 {
                        let off = lines.len() / 2;
                        prop_assert_eq!(
                            mount.read_lines_from(fname, off).unwrap(),
                            lines[off..].to_vec()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stale_mounts_always_fail_closed(v in 0..4u8, file in 0..6u8) {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let id = nfs.create_volume(format!("v{v}"));
        let fname = format!("f{file}");
        let mount = nfs.mount(&id).unwrap();
        mount.write_file(&mut sim, &fname, "x").unwrap();
        nfs.delete_volume(&id);
        // Every op on the stale mount fails or reports absence — never
        // resurrects data, not even once the name is provisioned again.
        nfs.create_volume(format!("v{v}"));
        let append = mount.append_line(&mut sim, "f", "y");
        prop_assert!(matches!(append, Err(NfsError::NoSuchVolume(_))));
        let read = mount.read_file(&fname);
        prop_assert!(matches!(read, Err(NfsError::NoSuchVolume(_))));
        prop_assert!(!mount.exists(&fname));
        prop_assert!(mount.list("").is_empty());
        prop_assert!(nfs.mount(&id).unwrap().list("").is_empty());
    }

    // A poller parked on the marker it waits for — or on the whole
    // volume — acts at exactly the instants a poller that polls every
    // period acts at, under any interleaving of writes to the marker and
    // elsewhere, removals, outages, volume deletion and time passing.
    #[test]
    fn a_parked_poller_acts_when_the_polling_one_does(
        ops in proptest::collection::vec(world_op(), 1..120),
    ) {
        let polled = acts(&ops, Poller::Polling);
        prop_assert_eq!(&acts(&ops, Poller::Parked(Some(MARKER))), &polled);
        prop_assert_eq!(&acts(&ops, Poller::Parked(None)), &polled);
    }
}

/// The file the pollers wait for; consumed (removed) by each act.
const MARKER: &str = "control/store-go";
const POLL: SimDuration = SimDuration::from_secs(1);

/// What the world around one poller does between two steps of the clock.
#[derive(Debug, Clone)]
enum WorldOp {
    /// A write to the marker (`true`) or to another file.
    Write(bool),
    /// An append to a log file.
    Append,
    /// A removal of the marker or of another file.
    Remove(bool),
    /// An outage window starts (`false`) or ends.
    Available(bool),
    /// The volume is deleted and provisioned again under its name.
    Recreate,
    /// Time passes (µs: writes land between grid instants too).
    Advance(u64),
}

fn world_op() -> impl Strategy<Value = WorldOp> {
    prop_oneof![
        3 => any::<bool>().prop_map(WorldOp::Write),
        2 => Just(WorldOp::Append),
        1 => any::<bool>().prop_map(WorldOp::Remove),
        2 => any::<bool>().prop_map(WorldOp::Available),
        1 => Just(WorldOp::Recreate),
        6 => (1..4_000_000u64).prop_map(WorldOp::Advance),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Poller {
    /// The reference: a poll every period.
    Polling,
    /// Parked between polls on the marker (`Some`) or the whole volume.
    Parked(Option<&'static str>),
}

type Acts = Rc<RefCell<Vec<u64>>>;

/// One poll: if the marker is there, act — note the instant, consume it.
fn poll(sim: &mut Sim, mount: &Mount, acts: &Acts) {
    if mount.exists(MARKER) {
        acts.borrow_mut().push(sim.now().as_micros());
        mount.remove(sim, MARKER);
    }
}

/// The parked poller: poll, then wait for a write — or, if the volume
/// cannot take the wait, poll again on the grid's next instant.
fn poll_parked(sim: &mut Sim, mount: Mount, on: Option<&'static str>, grid: Grid, acts: Acts) {
    poll(sim, &mount, &acts);
    let again = {
        let mount = mount.clone();
        move |sim: &mut Sim| poll_parked(sim, mount, on, grid, acts)
    };
    if mount.park(on, grid, again.clone()).is_err() {
        sim.schedule_at(grid.after(sim.now()), again);
    }
}

/// Runs one poller, started at time zero, in a world driven by `ops`;
/// returns the instants (µs) it acted at.
fn acts(ops: &[WorldOp], poller: Poller) -> Vec<u64> {
    let mut sim = Sim::new(1);
    let nfs = NfsServer::new();
    let vol = nfs.create_volume("job");
    let mount = nfs.mount(&vol).expect("volume up");
    let acts = Acts::default();
    let grid = Grid::new(SimTime::ZERO, POLL);
    match poller {
        Poller::Polling => {
            let acts = acts.clone();
            dlaas_sim::every(&mut sim, POLL, move |sim, _| {
                poll(sim, &mount, &acts);
                true
            });
        }
        Poller::Parked(on) => {
            let acts = acts.clone();
            sim.schedule_at(grid.after(SimTime::ZERO), move |sim| {
                poll_parked(sim, mount, on, grid, acts);
            });
        }
    }
    // The world writes through a mount of whatever volume bears the name
    // now (the pollers' mounts go stale with the one they mounted).
    let writer = |nfs: &NfsServer| nfs.mount(&vol).ok();
    let path = |marker: bool| if marker { MARKER } else { "learner-0/status" };
    for op in ops {
        match op {
            WorldOp::Write(marker) => {
                if let Some(m) = writer(&nfs) {
                    m.write_file(&mut sim, path(*marker), "x")
                        .expect("volume up");
                }
            }
            WorldOp::Append => {
                if let Some(m) = writer(&nfs) {
                    m.append_line(&mut sim, "learner-0/log", "x")
                        .expect("volume up");
                }
            }
            WorldOp::Remove(marker) => {
                if let Some(m) = writer(&nfs) {
                    m.remove(&mut sim, path(*marker));
                }
            }
            WorldOp::Available(up) => nfs.set_available(*up),
            WorldOp::Recreate => {
                nfs.delete_volume(&vol);
                nfs.create_volume("job");
            }
            WorldOp::Advance(us) => {
                sim.run_for(SimDuration::from_micros(*us));
            }
        }
    }
    nfs.set_available(true);
    sim.run_for(POLL * 3);
    let acted = acts.borrow().clone();
    acted
}
