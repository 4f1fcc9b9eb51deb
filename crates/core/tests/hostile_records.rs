//! Hostile records: what the platform reads back from its stores — job
//! documents, stored manifests, etcd keys, learner phases — may be
//! corrupt. Every reader must refuse a record it cannot read with an
//! error, never panic (a panic takes down the process that sweeps every
//! job, not just the job the record belongs to), and must read back
//! exactly what the platform wrote.
//!
//! The inputs are arbitrary texts made of the readers' own punctuation
//! and words, and valid records truncated or with characters replaced,
//! inserted or deleted. A reader that panics is reported with the input
//! that made it panic.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dlaas_core::paths::{self, JobKey};
use dlaas_core::{JobId, JobStatus, LearnerPhase, MetaClient, TrainingManifest};
use dlaas_docstore::{Obj, Value};
use dlaas_gpu::{DlModel, Framework, GpuKind};
use proptest::prelude::*;
use proptest::strategy::TestRng;

/// What hostile texts are made of: JSON's punctuation, literals, numbers
/// and escapes, whitespace, control and multi-byte characters, and the
/// words of etcd keys, statuses and learner phases.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\u00", "/", "null", "true", "false", "nul",
    "0", "1", "9", "-", "+", ".", "e", "E", "1e999", "-0", "9223372036854775808", " ", "\n",
    "\t", "\0", "\u{1f}", "é", "😀", "\u{fffd}", "jobs/", "learners/", "j1", "restarts",
    "store", "data", "throughput", "PROCESSING", "PROCESSING iter=", "DOWNLOADING", "COMPLETED",
    "FAILED", "PENDING", "_id", "status", "history", "t_us", "name", "learning_rate",
];

/// Field names the readers look up, so that generated objects hit them.
const KEYS: &[&str] = &[
    "_id",
    "name",
    "status",
    "history",
    "t_us",
    "iteration",
    "learner_restarts",
    "images_per_sec",
    "learners",
    "manifest",
    "0",
    "1",
    "a.b",
    "",
];

/// Strings the readers parse, and some they do not.
const STRINGS: &[&str] = &[
    "j1",
    "PENDING",
    "PROCESSING",
    "COMPLETED",
    "KILLED",
    "processing",
    "DOWNLOADING",
    "PROCESSING iter=7",
    "PROCESSING iter=-1",
    "",
    "é\"\\\n\u{0}",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A text of up to `max` tokens.
fn tokens(rng: &mut TestRng, max: u64) -> String {
    (0..rng.below(max + 1)).map(|_| pick(rng, TOKENS)).collect()
}

/// Arbitrary texts of up to 40 tokens.
struct Texts;

impl Strategy for Texts {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        tokens(rng, 40)
    }
}

/// Documents the platform could have written: any value, nested up to
/// `depth`, with finite numbers (a non-finite one is written as `null`).
struct Documents {
    depth: u32,
}

impl Strategy for Documents {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let kinds = if self.depth == 0 { 5 } else { 7 };
        let child = Documents {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::I64(match rng.below(3) {
                0 => rng.below(100) as i64,
                1 => -(rng.below(100) as i64),
                _ => rng.next_u64() as i64,
            }),
            3 => Value::F64(match f64::from_bits(rng.next_u64()) {
                f if f.is_finite() && rng.below(2) == 0 => f,
                _ => (rng.unit() - 0.5) * 1e6,
            }),
            4 => Value::Str(match rng.below(2) {
                0 => pick(rng, STRINGS).to_owned(),
                _ => tokens(rng, 6),
            }),
            5 => Value::Arr((0..rng.below(4)).map(|_| child.generate(rng)).collect()),
            _ => Value::Obj(
                (0..rng.below(5))
                    .map(|_| {
                        let key = match rng.below(3) {
                            0 => tokens(rng, 3),
                            _ => pick(rng, KEYS).to_owned(),
                        };
                        (key, child.generate(rng))
                    })
                    .collect(),
            ),
        }
    }
}

/// Damages a valid encoding: truncates it, or replaces, inserts or
/// deletes characters, one to four times.
fn damage(text: &str, rng: &mut TestRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..=rng.below(4) {
        let at = rng.below(chars.len() as u64 + 1) as usize;
        match rng.below(4) {
            0 => chars.truncate(at),
            1 if at < chars.len() => {
                chars.splice(at..=at, pick(rng, TOKENS).chars());
            }
            2 => {
                chars.splice(at..at, pick(rng, TOKENS).chars());
            }
            _ if at < chars.len() => {
                chars.remove(at);
            }
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// Runs `read`; a panic fails the test naming the input.
fn never_panics<I: Debug + ?Sized, R>(reader: &str, input: &I, read: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(read)) {
        Ok(r) => r,
        Err(_) => panic!("{reader} panicked on {input:?}"),
    }
}

/// Feeds `text` to every reader of a stored text. A document it parses
/// into is also read as a job document.
fn read_all(text: &str) {
    let parsed = never_panics("Value::parse_json", text, || Value::parse_json(text));
    if let Ok(doc) = &parsed {
        never_panics("MetaClient::parse_job_info", doc, || {
            MetaClient::parse_job_info(doc)
        })
        .ok();
        let again = Value::parse_json(&doc.to_json());
        assert_eq!(again.as_ref(), Ok(doc), "what parsed reads back: {text:?}");
    }
    never_panics("TrainingManifest::from_json", text, || {
        TrainingManifest::from_json(text)
    })
    .ok();
    never_panics("LearnerPhase::from_str", text, || {
        text.parse::<LearnerPhase>()
    })
    .ok();
    for job in ["j1", "j", text] {
        never_panics("paths::parse_etcd_job_key", text, || {
            paths::parse_etcd_job_key(&JobId::new(job), text)
        });
    }
}

/// Valid manifests over the whole range of every field the builder
/// accepts.
struct Manifests;

impl Strategy for Manifests {
    type Value = TrainingManifest;

    fn generate(&self, rng: &mut TestRng) -> TrainingManifest {
        const FRAMEWORKS: [Framework; 4] = [
            Framework::Caffe,
            Framework::TensorFlow,
            Framework::Torch,
            Framework::Horovod,
        ];
        const MODELS: [DlModel; 3] = [DlModel::Vgg16, DlModel::Resnet50, DlModel::InceptionV3];
        const GPUS: [GpuKind; 5] = [
            GpuKind::K80,
            GpuKind::P100Pcie,
            GpuKind::P100Sxm2,
            GpuKind::V100Pcie,
            GpuKind::V100Sxm2,
        ];
        let nonempty = |rng: &mut TestRng| format!("x{}", tokens(rng, 5));
        let positive = |rng: &mut TestRng| match rng.below(2) {
            0 => 1 + rng.below(1_000),
            _ => rng.next_u64().max(1),
        };
        TrainingManifest::builder(nonempty(rng))
            .framework(FRAMEWORKS[rng.below(4) as usize])
            .model(MODELS[rng.below(3) as usize])
            .gpus(GPUS[rng.below(5) as usize], positive(rng) as u32 | 1)
            .learners(positive(rng) as u32 | 1)
            .data(nonempty(rng), tokens(rng, 5), positive(rng))
            .results(nonempty(rng))
            .iterations(positive(rng))
            .checkpoint_every(rng.next_u64() >> rng.below(64))
            .batch_per_gpu(rng.next_u64() as u32 >> rng.below(32))
            .learning_rate(match f64::from_bits(rng.next_u64()) {
                lr if lr.is_finite() && lr > 0.0 => lr,
                _ => rng.unit() + 1e-9,
            })
            .build()
            .expect("every field is in range")
    }
}

/// The fields of a job document [`MetaClient::parse_job_info`] reads.
const JOB_FIELDS: &[&str] = &[
    "_id",
    "name",
    "status",
    "history",
    "iteration",
    "learner_restarts",
    "images_per_sec",
    "learners",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn arbitrary_text_is_refused_or_read_and_never_panics(text in Texts) {
        read_all(&text);
    }

    #[test]
    fn a_written_document_reads_back_and_a_damaged_one_never_panics(
        doc in Documents { depth: 4 },
        seed in any::<u64>(),
    ) {
        let text = doc.to_json();
        prop_assert_eq!(Value::parse_json(&text), Ok(doc));
        let mut rng = TestRng::new(seed);
        for _ in 0..8 {
            read_all(&damage(&text, &mut rng));
        }
    }

    #[test]
    fn a_written_manifest_reads_back_and_a_damaged_one_never_panics(
        manifest in Manifests,
        seed in any::<u64>(),
    ) {
        let text = manifest.to_json();
        prop_assert_eq!(TrainingManifest::from_json(&text), Ok(manifest));
        let mut rng = TestRng::new(seed);
        for _ in 0..8 {
            read_all(&damage(&text, &mut rng));
        }
    }

    #[test]
    fn a_job_document_with_ill_typed_or_missing_fields_is_refused_or_read(
        manifest in Manifests,
        at in 0..i64::MAX as u64,
        values in proptest::collection::vec(Documents { depth: 3 }, JOB_FIELDS.len()..JOB_FIELDS.len() + 1),
        seed in any::<u64>(),
    ) {
        // The document as the API writes it, with its store-assigned id.
        let mut manifest = manifest;
        (manifest.gpus_per_learner, manifest.learners) = (1, 1);
        let mut doc = MetaClient::job_document("acme", &manifest, at, JobStatus::Pending);
        *doc.path_mut_or_create("_id").expect("an object") = Value::from("j1");
        let info = MetaClient::parse_job_info(&doc).expect("a written document reads");
        prop_assert_eq!(
            (info.job.as_str(), info.status, info.history),
            ("j1", JobStatus::Pending, vec![(JobStatus::Pending, at)])
        );

        // Each field the reader looks at replaced by any value, or gone.
        let mut rng = TestRng::new(seed);
        let Value::Obj(fields) = &mut doc else { unreachable!("a job document is an object") };
        for (field, value) in JOB_FIELDS.iter().zip(values) {
            match rng.below(3) {
                0 => {}
                1 => {
                    fields.insert((*field).to_owned(), value);
                }
                _ => {
                    fields.remove(field);
                }
            }
        }
        never_panics("MetaClient::parse_job_info", &doc, || MetaClient::parse_job_info(&doc)).ok();
        let text = doc.to_json();
        for _ in 0..4 {
            read_all(&damage(&text, &mut rng));
        }
    }

    #[test]
    fn any_document_is_refused_or_read_as_a_job(doc in Documents { depth: 4 }) {
        let mut job = Obj::new();
        job.insert("doc".to_owned(), doc.clone());
        for doc in [doc, Value::Obj(job)] {
            never_panics("MetaClient::parse_job_info", &doc, || MetaClient::parse_job_info(&doc))
                .ok();
        }
    }

    #[test]
    fn written_etcd_keys_and_phases_read_back_and_damaged_ones_never_panic(
        id in (0..u64::MAX).prop_map(|n| format!("job-{n:x}")),
        ordinal in any::<u32>(),
        iteration in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let job = JobId::new(id.as_str());
        let other = JobId::new(format!("{id}0"));
        let keys = [
            (paths::etcd_learner(&job, ordinal), JobKey::Learner(ordinal)),
            (paths::etcd_restarts(&job), JobKey::Restarts),
            (paths::etcd_store(&job), JobKey::Store),
            (paths::etcd_data(&job), JobKey::Data),
            (paths::etcd_throughput(&job), JobKey::Throughput),
        ];
        let phases = [
            LearnerPhase::Downloading,
            LearnerPhase::Processing { iteration },
            LearnerPhase::Completed,
            LearnerPhase::Failed,
        ];
        let mut rng = TestRng::new(seed);
        for (key, what) in keys {
            prop_assert_eq!(paths::parse_etcd_job_key(&job, &key), Some(what));
            prop_assert_eq!(paths::parse_etcd_job_key(&other, &key), None, "{}", key);
            read_all(&damage(&key, &mut rng));
        }
        for phase in phases {
            let text = phase.to_string();
            prop_assert_eq!(text.parse::<LearnerPhase>(), Ok(phase));
            read_all(&damage(&text, &mut rng));
        }
    }
}

/// Inputs the properties above once failed on, kept as they were found.
#[test]
fn inputs_that_once_failed_are_refused_or_read() {
    // Overflowed to an infinity, which re-encodes as `null`.
    assert!(Value::parse_json("1e999").is_err());
    assert!(Value::parse_json("-1e999").is_err());
    for text in ["1e999", "{\"learning_rate\":0.11399746683901e999982}"] {
        read_all(text);
    }
    // Overflowed the parser's stack, which aborts the process.
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(100_000);
        assert!(Value::parse_json(&deep).is_err());
        read_all(&deep);
    }
}
