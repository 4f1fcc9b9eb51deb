//! Property-based model checking of the NFS service against a naive map
//! of volumes → files → lines, under random op sequences including
//! volume deletion (stale mounts) and recreation; of the views a tail
//! hands out, which outlive what their file does next; of a log
//! collector's object across its restarts; and of parked pollers against
//! the polling loops they replace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dlaas_objstore::{ObjectBody, ObjectStore};
use dlaas_sharedfs::{Mount, NfsError, NfsServer};
use dlaas_sim::{Grid, Sim, SimDuration, SimTime, TextView};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    CreateVolume(u8),
    DeleteVolume(u8),
    Append { vol: u8, file: u8, line: u16 },
    WriteFile { vol: u8, file: u8, content: u16 },
    Remove { vol: u8, file: u8 },
    Tail { vol: u8, file: u8, from: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..4u8).prop_map(Op::CreateVolume),
        1 => (0..4u8).prop_map(Op::DeleteVolume),
        5 => (0..4u8, 0..6u8, any::<u16>()).prop_map(|(vol, file, line)| Op::Append { vol, file, line }),
        3 => (0..4u8, 0..6u8, any::<u16>()).prop_map(|(vol, file, content)| Op::WriteFile { vol, file, content }),
        1 => (0..4u8, 0..6u8).prop_map(|(vol, file)| Op::Remove { vol, file }),
        2 => (0..4u8, 0..6u8, 0..8u8).prop_map(|(vol, file, from)| Op::Tail { vol, file, from }),
    ]
}

type Model = BTreeMap<String, BTreeMap<String, Vec<String>>>;

/// A view a tail handed out: what it must keep reading, and which of its
/// file's buffers it reads (a file's buffer ends when the file is
/// rewritten, removed or its volume deleted).
struct View {
    body: TextView,
    text: String,
    buffer: u64,
}

/// The buffers behind every file of the model: the live one of each file,
/// and how long each ended one was when it ended.
#[derive(Default)]
struct Buffers {
    live: BTreeMap<(String, String), u64>,
    ended: BTreeMap<u64, usize>,
    next: u64,
}

impl Buffers {
    /// The buffer of `vol/file`, a new one if it has none.
    fn of(&mut self, vol: &str, file: &str) -> u64 {
        let next = &mut self.next;
        *self
            .live
            .entry((vol.to_owned(), file.to_owned()))
            .or_insert_with(|| {
                *next += 1;
                *next
            })
    }

    /// `vol/file`'s buffer ends, holding `lines`.
    fn end(&mut self, vol: &str, file: &str, lines: &[String]) {
        if let Some(buffer) = self.live.remove(&(vol.to_owned(), file.to_owned())) {
            self.ended.insert(buffer, lines.join("\n").len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    #[test]
    fn nfs_matches_naive_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let mut model: Model = BTreeMap::new();
        let mut buffers = Buffers::default();
        let mut views: Vec<View> = Vec::new();

        for op in ops {
            match op {
                Op::CreateVolume(v) => {
                    let name = format!("v{v}");
                    nfs.create_volume(&name);
                    model.entry(name).or_default();
                }
                Op::DeleteVolume(v) => {
                    let name = format!("v{v}");
                    let removed = model.remove(&name);
                    for (fname, lines) in removed.iter().flatten() {
                        buffers.end(&name, fname, lines);
                    }
                    let existed_real = nfs.delete_volume_named(&sim, &name);
                    prop_assert_eq!(existed_real, removed.is_some());
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
                            if let Some(lines) = files.get(&fname) {
                                buffers.end(&vname, &fname, lines);
                            }
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
                    let removed_model = model.get_mut(&vname).and_then(|files| files.remove(&fname));
                    if let Some(lines) = &removed_model {
                        buffers.end(&vname, &fname, lines);
                    }
                    prop_assert_eq!(removed_real, removed_model.is_some());
                }
                Op::Tail { vol, file, from } => {
                    let vname = format!("v{vol}");
                    let fname = format!("f{file}");
                    let from = usize::from(from);
                    let before = nfs.stats();
                    let result = nfs
                        .find_volume(&vname)
                        .and_then(|id| nfs.mount(&id).ok())
                        .map(|m| m.tail(&fname, from));
                    let after = nfs.stats();
                    match model.get(&vname).map(|files| files.get(&fname)) {
                        Some(Some(lines)) => {
                            let Some(Ok((count, body))) = result else {
                                panic!("tail of {vname}/{fname}: {result:?}");
                            };
                            prop_assert_eq!(count, lines.len());
                            // Counted as a read of the lines from `from` on.
                            let tail = lines.get(from..).unwrap_or_default();
                            prop_assert_eq!(after.reads - before.reads, u64::from(!tail.is_empty()));
                            let bytes: usize = tail.iter().map(|l| l.len() + 1).sum();
                            prop_assert_eq!(after.bytes_read - before.bytes_read, bytes as u64);
                            let buffer = buffers.of(&vname, &fname);
                            views.push(View { body, text: lines.join("\n"), buffer });
                        }
                        Some(None) => prop_assert_eq!(result, Some(Err(NfsError::NoSuchFile(fname)))),
                        None => prop_assert!(result.is_none(), "tail of a missing volume"),
                    }
                }
            }

            // Every view reads what its file held when it was taken, and
            // one whose buffer ended keeps no room beyond the buffer's text.
            for view in &views {
                prop_assert_eq!(&*view.body.text(), view.text.as_str());
                if let Some(len) = buffers.ended.get(&view.buffer) {
                    prop_assert_eq!(view.body.spare_capacity(), len - view.text.len());
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
        nfs.delete_volume(&sim, &id);
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

    // A log collector — a cursor, and a view of the log it re-puts whole
    // on every flush — ships what it read, however its flushes, restarts
    // and NFS outages interleave with the learner's appends; a restarted
    // one ships the whole log at its first flush; and the object keeps
    // the log, with no room for growth, once the volume is gone.
    #[test]
    fn a_collector_ships_what_it_read_and_a_restarted_one_the_whole_log(
        ops in proptest::collection::vec(collector_op(), 1..100),
    ) {
        let mut sim = Sim::new(1);
        let nfs = NfsServer::new();
        let vol = nfs.create_volume("job");
        let mount = nfs.mount(&vol).expect("volume up");
        let store = ObjectStore::new(1e9);
        store.create_bucket("logs");
        let mut log: Vec<String> = Vec::new();
        let mut shipped: Option<String> = None;
        let mut collector = Collector::default();
        for op in ops {
            match op {
                CollectorOp::Append(n) => {
                    let line = format!("iter={n}");
                    if mount.append_line(&mut sim, LOG, &line).is_ok() {
                        log.push(line);
                    }
                }
                CollectorOp::Flush => {
                    collector.flush(&mut sim, &mount, &store);
                    sim.run_until_idle();
                    // A restarted collector that could not read yet puts
                    // nothing: the object stays what was shipped last.
                    if collector.body.is_some() {
                        shipped = Some(log[..collector.read].join("\n"));
                    }
                    prop_assert_eq!(&store.read_text("logs", LOG), &shipped);
                }
                CollectorOp::Restart => collector = Collector::default(),
                CollectorOp::Available(up) => nfs.set_available(&sim, up),
            }
        }
        nfs.set_available(&sim, true);
        let mut restarted = Collector::default();
        restarted.flush(&mut sim, &mount, &store);
        sim.run_until_idle();
        prop_assert_eq!(store.read_text("logs", LOG), (!log.is_empty()).then(|| log.join("\n")));

        // The volume goes: the object keeps the log at its length.
        drop((collector, restarted));
        nfs.delete_volume(&sim, &vol);
        let object: Rc<RefCell<Option<ObjectBody>>> = Rc::default();
        let got = object.clone();
        store.get(&mut sim, "logs", LOG, None, move |_, r| {
            *got.borrow_mut() = r.ok().map(|o| o.body);
        });
        sim.run_until_idle();
        let object = object.borrow();
        match &*object {
            Some(ObjectBody::Text(view)) => {
                prop_assert_eq!(&*view.text(), log.join("\n").as_str());
                prop_assert_eq!(view.spare_capacity(), 0);
            }
            other => prop_assert!(other.is_none() && log.is_empty(), "{:?}", other),
        }
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

/// The learner's log the collector ships, on the volume and in the store.
const LOG: &str = "learner-0/log";

#[derive(Debug, Clone)]
enum CollectorOp {
    /// The learner appends a line.
    Append(u16),
    /// The collector flushes, and its put lands.
    Flush,
    /// The collector restarts: its cursor and its view are gone.
    Restart,
    /// An NFS outage starts (`false`) or ends.
    Available(bool),
}

fn collector_op() -> impl Strategy<Value = CollectorOp> {
    prop_oneof![
        5 => any::<u16>().prop_map(CollectorOp::Append),
        3 => Just(CollectorOp::Flush),
        1 => Just(CollectorOp::Restart),
        1 => any::<bool>().prop_map(CollectorOp::Available),
    ]
}

/// The log collector's tail of one log: how many lines it read, and a
/// view of them it re-puts whole.
#[derive(Default)]
struct Collector {
    read: usize,
    body: Option<ObjectBody>,
}

impl Collector {
    /// Reads past the cursor (an outage leaves the tail for the next
    /// flush) and puts everything read so far.
    fn flush(&mut self, sim: &mut Sim, mount: &Mount, store: &ObjectStore) {
        if let Ok((read, view)) = mount.tail(LOG, self.read) {
            self.read = read;
            self.body = Some(ObjectBody::Text(view));
        }
        if let Some(body) = &self.body {
            store.put(sim, "logs", LOG, body.clone(), None, |_, r| {
                assert_eq!(r, Ok(()));
            });
        }
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
    let wakes = move |path: &str, _: &str, _| on.is_none_or(|p| p == path);
    if mount.park(wakes, grid, again.clone()).is_err() {
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
            WorldOp::Available(up) => nfs.set_available(&sim, *up),
            WorldOp::Recreate => {
                nfs.delete_volume(&sim, &vol);
                nfs.create_volume("job");
            }
            WorldOp::Advance(us) => {
                sim.run_for(SimDuration::from_micros(*us));
            }
        }
    }
    nfs.set_available(&sim, true);
    sim.run_for(POLL * 3);
    let acted = acts.borrow().clone();
    acted
}
