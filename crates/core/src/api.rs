//! The DLaaS API microservice.
//!
//! "The DLaaS API microservice handles all the incoming API requests
//! including load balancing, metering, and access management. […] When a
//! job deployment request arrives, the API layer stores all the metadata
//! in MongoDB **before acknowledging the request**. This ensures that
//! submitted jobs are never lost. The API layer then submits the job to
//! the DLaaS Lifecycle Manager." (§III-c)
//!
//! The service is stateless: every replica serves any request, so the K8s
//! service in front provides load balancing and fail-over. A replica that
//! crashes loses nothing but in-flight requests (which clients retry).

use std::cell::OnceCell;
use std::rc::Rc;

use dlaas_docstore::{Doc, Filter, Value};
use dlaas_kube::{pod_addr, Cleanup, ProcessCtx};
use dlaas_net::Retry;
use dlaas_sim::{CounterHandle, Sim, SimDuration};

use crate::config;
use crate::handles::{Handles, LCM_SERVICE};
use crate::job::{JobId, JobStatus};
use crate::manifest::TrainingManifest;
use crate::marks::api;
use crate::metrics;
use crate::mongo::{MetaClient, JOBS, TENANTS};
use crate::paths;
use crate::proto::{CoreRequest, CoreResponse};
use crate::tenant::Tenant;

/// How a kill is forwarded to the LCM: attempts 400 ms apart, 9 of them
/// under pure timeouts.
const STOP_RETRY: &Retry = &Retry {
    name: "stop-job",
    timeout: config::RPC_TIMEOUT,
    backoff: SimDuration::from_millis(400),
    budget: SimDuration::from_millis(9 * 1_200),
};

/// How a recorded job's deploy is handed to the LCM: attempts 400 ms
/// apart, 11 of them under pure timeouts (the LCM's scan deploys it
/// anyway if every one is lost).
const DEPLOY_RETRY: &Retry = &Retry {
    name: "deploy-job",
    timeout: config::RPC_TIMEOUT,
    backoff: SimDuration::from_millis(400),
    budget: SimDuration::from_millis(11 * 1_200),
};

/// Statuses that count against a tenant's GPU quota.
fn active_statuses() -> Vec<Value> {
    [
        JobStatus::Pending,
        JobStatus::Deploying,
        JobStatus::Processing,
        JobStatus::Storing,
    ]
    .iter()
    .map(|s| Value::from(s.to_string()))
    .collect()
}

/// Behavior factory for the API service container.
pub fn api_behavior(h: Handles, sim: &mut Sim, ctx: ProcessCtx) -> Cleanup {
    let addr = pod_addr(&ctx.pod);
    let meta = Rc::new(h.meta(&ctx, &ctx.pod));
    sim.mark(&api::UP, ctx.pod.as_str(), 0);

    let h2 = h.clone();
    let meta2 = meta.clone();
    let ctx2 = ctx.clone();
    let requests = RequestCounters::default();
    h.rpc.serve(addr.clone(), move |sim, req, responder| {
        if !ctx2.is_alive() {
            return; // crashed but not yet unregistered: drop the request
        }
        meter(sim, &meta2, &requests, req);
        handle(sim, &h2, &meta2, &ctx2, req.clone(), responder);
    });

    let rpc = h.rpc.clone();
    Box::new(move |_sim| {
        rpc.stop_serving(&addr);
    })
}

type Resp = dlaas_net::Responder<CoreRequest, CoreResponse>;

/// The metering collection: one document per API key, one counter per
/// request kind (§III-c: the API service handles metering). Counters are
/// keyed by API key rather than tenant id so unauthenticated probes are
/// visible too; the documents are created lazily on first use.
pub const METERING: &str = "metering";

/// Handles to the API request counter, one per request kind, each made
/// on its kind's first request: metering a request bumps a handle.
#[derive(Default)]
struct RequestCounters([OnceCell<CounterHandle>; 5]);

fn meter(sim: &mut Sim, meta: &Rc<MetaClient>, counters: &RequestCounters, req: &CoreRequest) {
    let (key, kind, counter) = match req {
        CoreRequest::Submit { api_key, .. } => (api_key, "submit", 0),
        CoreRequest::GetStatus { api_key, .. } => (api_key, "status", 1),
        CoreRequest::ListJobs { api_key } => (api_key, "list", 2),
        CoreRequest::Kill { api_key, .. } => (api_key, "kill", 3),
        CoreRequest::GetLogs { api_key, .. } => (api_key, "logs", 4),
        // Internal control-plane traffic is not user-metered.
        CoreRequest::DeployJob { .. }
        | CoreRequest::StopJob { .. }
        | CoreRequest::JobEnded { .. } => return,
    };
    counters.0[counter]
        .get_or_init(|| sim.metrics().counter_series(metrics::API_REQUESTS, [kind]))
        .inc();
    let filter = Filter::eq("_id", key.as_str());
    let update = dlaas_docstore::Update::inc(kind, 1);
    let meta2 = meta.clone();
    let key = key.clone();
    meta.update_one(sim, METERING, filter, update, move |sim, r| {
        if let Ok(false) = r {
            // First request from this key: create the counter document.
            // A concurrent insert from another replica may have won the
            // race; the duplicate-id rejection loses one count, which
            // metering tolerates.
            let doc = dlaas_docstore::obj! { "_id" => key, kind => 1 };
            meta2.insert(sim, METERING, doc, |_sim, _r| {});
        }
    });
}

fn handle(
    sim: &mut Sim,
    h: &Handles,
    meta: &Rc<MetaClient>,
    ctx: &ProcessCtx,
    req: CoreRequest,
    responder: Resp,
) {
    match req {
        CoreRequest::Submit { api_key, manifest } => {
            submit(sim, h, meta, ctx, api_key, manifest, responder);
        }
        CoreRequest::GetStatus { api_key, job } => with_owned_job(
            sim,
            meta.clone(),
            api_key,
            job,
            responder,
            |sim, _h, doc, responder| match MetaClient::parse_job_info(&doc) {
                Ok(info) => responder.ok(sim, CoreResponse::Status(info)),
                Err(e) => responder.err(sim, e.to_string()),
            },
            h.clone(),
        ),
        CoreRequest::ListJobs { api_key } => list_jobs(sim, meta, api_key, responder),
        CoreRequest::Kill { api_key, job } => {
            let h2 = h.clone();
            let from = pod_addr(&ctx.pod);
            with_owned_job(
                sim,
                meta.clone(),
                api_key,
                job.clone(),
                responder,
                move |sim, h, _doc, responder| {
                    // Forward to the LCM, which owns teardown.
                    let lcm = h.kube.service_resolver(LCM_SERVICE);
                    let stop = CoreRequest::StopJob { job };
                    STOP_RETRY.send(sim, &h.rpc, from, stop, lcm, move |sim, r| match r {
                        Ok(_) => responder.ok(sim, CoreResponse::Ok),
                        Err(e) => responder.err(sim, format!("kill failed: {e}")),
                    });
                },
                h2,
            );
        }
        CoreRequest::GetLogs {
            api_key,
            job,
            learner,
        } => {
            let h2 = h.clone();
            with_owned_job(
                sim,
                meta.clone(),
                api_key,
                job.clone(),
                responder,
                move |sim, h, doc, responder| {
                    let Some(manifest) = doc
                        .path("manifest")
                        .and_then(Value::as_str)
                        .and_then(|s| TrainingManifest::from_json(s).ok())
                    else {
                        responder.err(sim, "corrupt job document");
                        return;
                    };
                    h.objstore.get(
                        sim,
                        manifest.results_bucket,
                        paths::obj_log(&job, learner),
                        None,
                        move |sim, r| match r {
                            Ok(obj) => {
                                let lines: Vec<String> = obj
                                    .body
                                    .as_text()
                                    .map(|text| text.lines().map(str::to_owned).collect())
                                    .unwrap_or_default();
                                responder.ok(sim, CoreResponse::Logs(lines));
                            }
                            Err(_) => responder.err(sim, "no logs collected yet"),
                        },
                    );
                },
                h2,
            );
        }
        // Control-plane requests addressed to the LCM, not us.
        CoreRequest::DeployJob { .. }
        | CoreRequest::StopJob { .. }
        | CoreRequest::JobEnded { .. } => {
            responder.err(sim, "not an API endpoint");
        }
    }
}

/// Authenticates the key, loads the job, and verifies tenant ownership
/// before running `then`.
fn with_owned_job(
    sim: &mut Sim,
    meta: Rc<MetaClient>,
    api_key: String,
    job: JobId,
    responder: Resp,
    then: impl FnOnce(&mut Sim, Handles, Doc, Resp) + 'static,
    h: Handles,
) {
    with_tenant(
        sim,
        &meta,
        api_key,
        responder,
        move |sim, meta, tenant, resp| {
            let filter = Filter::and(vec![
                Filter::eq("_id", job.as_str()),
                Filter::eq("tenant", tenant.id),
            ]);
            meta.find_one(sim, JOBS, filter, move |sim, r| match r {
                Ok(Some(doc)) => then(sim, h, doc, resp),
                Ok(None) => resp.err(sim, "job not found"),
                Err(e) => resp.err(sim, e.to_string()),
            });
        },
    );
}

/// Looks the tenant up by its API key and runs `then` with it (and the
/// metadata client). A key that names no tenant, a corrupt tenant
/// document and a store error are answered here.
fn with_tenant(
    sim: &mut Sim,
    meta: &Rc<MetaClient>,
    api_key: String,
    responder: Resp,
    then: impl FnOnce(&mut Sim, &Rc<MetaClient>, Tenant, Resp) + 'static,
) {
    let meta2 = meta.clone();
    let filter = Filter::eq("api_key", api_key);
    meta.find_one(sim, TENANTS, filter, move |sim, r| match r {
        Ok(Some(doc)) => match Tenant::from_document(&doc) {
            Some(tenant) => then(sim, &meta2, tenant, responder),
            None => responder.err(sim, "corrupt tenant document"),
        },
        Ok(None) => {
            sim.metrics()
                .counter_series(metrics::API_AUTH_FAILURES, [])
                .inc();
            responder.err(sim, "unauthorized");
        }
        Err(e) => responder.err(sim, e.to_string()),
    });
}

fn list_jobs(sim: &mut Sim, meta: &Rc<MetaClient>, api_key: String, responder: Resp) {
    with_tenant(sim, meta, api_key, responder, |sim, meta, tenant, resp| {
        let filter = Filter::eq("tenant", tenant.id);
        meta.find(sim, JOBS, filter, move |sim, r| match r {
            Ok(docs) => {
                let ids = docs
                    .iter()
                    .filter_map(|d| d.path("_id").and_then(Value::as_str))
                    .map(JobId::new)
                    .collect();
                resp.ok(sim, CoreResponse::Jobs(ids));
            }
            Err(e) => resp.err(sim, e.to_string()),
        });
    });
}

fn submit(
    sim: &mut Sim,
    h: &Handles,
    meta: &Rc<MetaClient>,
    ctx: &ProcessCtx,
    api_key: String,
    manifest: TrainingManifest,
    responder: Resp,
) {
    if let Err(e) = manifest.validate() {
        sim.metrics()
            .counter_series(metrics::API_SUBMISSIONS, ["rejected_invalid"])
            .inc();
        responder.err(sim, e.to_string());
        return;
    }
    let h = h.clone();
    let from = pod_addr(&ctx.pod);
    with_tenant(
        sim,
        meta,
        api_key,
        responder,
        move |sim, meta, tenant, resp| {
            // Quota: sum GPUs of the tenant's active jobs. An unlimited
            // tenant (max_gpus == 0) skips the scan entirely — fetching
            // every active job document just to ignore it is the single
            // largest per-submission cost at scale.
            if tenant.max_gpus == 0 {
                return record_and_deploy(sim, &h, meta, &tenant.id, &manifest, from, resp);
            }
            // A job demanding more GPUs than the tenant's whole quota can
            // never be admitted — queueing it would head-of-line block
            // the tenant's fair queue forever. Reject it outright.
            if manifest.total_gpus() > tenant.max_gpus {
                sim.metrics()
                    .counter_series(metrics::API_SUBMISSIONS, ["rejected_quota"])
                    .inc();
                return resp.err(
                    sim,
                    format!(
                        "quota exceeded: job needs {} GPUs, tenant quota is {}",
                        manifest.total_gpus(),
                        tenant.max_gpus
                    ),
                );
            }
            let quota_filter = Filter::and(vec![
                Filter::eq("tenant", tenant.id.clone()),
                Filter::In("status".into(), active_statuses()),
            ]);
            let meta2 = meta.clone();
            meta.find(sim, JOBS, quota_filter, move |sim, r| {
                let docs = match r {
                    Ok(d) => d,
                    Err(e) => return resp.err(sim, e.to_string()),
                };
                let in_use: u32 = docs.iter().map(|d| doc_gpus(d).unwrap_or(0)).sum();
                if in_use + manifest.total_gpus() > tenant.max_gpus {
                    // Over quota: accept the job into the weighted fair
                    // queue instead of rejecting. The LCM's admission
                    // arbiter promotes it once the tenant has headroom.
                    return record_queued(sim, &meta2, &tenant.id, &manifest, resp);
                }
                record_and_deploy(sim, &h, &meta2, &tenant.id, &manifest, from, resp);
            });
        },
    );
}

/// A job document's GPU demand, its `gpus` field (`None`: missing or
/// not a `u32`, which only a corrupt store holds — the API writes it on
/// every document).
pub(crate) fn doc_gpus(doc: &Value) -> Option<u32> {
    let gpus = doc.path("gpus")?.as_i64()?;
    u32::try_from(gpus).ok()
}

/// Durably records the job with `status`, then runs `then` with its id.
/// A failed insert is answered here and counted as a submission error.
fn record(
    sim: &mut Sim,
    meta: &Rc<MetaClient>,
    tenant_id: &str,
    manifest: &TrainingManifest,
    status: JobStatus,
    responder: Resp,
    then: impl FnOnce(&mut Sim, JobId, Resp) + 'static,
) {
    let doc = MetaClient::job_document(tenant_id, manifest, sim.now().as_micros(), status);
    meta.insert(sim, JOBS, doc, move |sim, r| match r {
        Ok(id) => then(sim, JobId::new(id), responder),
        Err(e) => {
            sim.metrics()
                .counter_series(metrics::API_SUBMISSIONS, ["error"])
                .inc();
            responder.err(sim, e.to_string());
        }
    });
}

/// Durably record an over-quota job as QUEUED and acknowledge the client.
/// No DeployJob message is sent: the LCM's fair-queue arbiter admits the
/// job (QUEUED → PENDING) when the tenant has quota headroom, and its
/// normal pending sweep deploys it from there.
fn record_queued(
    sim: &mut Sim,
    meta: &Rc<MetaClient>,
    tenant_id: &str,
    manifest: &TrainingManifest,
    responder: Resp,
) {
    let status = JobStatus::Queued;
    record(
        sim,
        meta,
        tenant_id,
        manifest,
        status,
        responder,
        |sim, id, responder| {
            sim.metrics()
                .counter_series(metrics::API_SUBMISSIONS, ["queued"])
                .inc();
            sim.mark(&api::QUEUED, id.as_str(), 0);
            responder.ok(sim, CoreResponse::Submitted { job: id });
        },
    );
}

/// Durably record the job, acknowledge the client, then hand the job id to
/// the LCM fire-and-forget (the LCM scan is the dependability backstop if
/// that message — or the LCM itself — is lost).
fn record_and_deploy(
    sim: &mut Sim,
    h: &Handles,
    meta: &Rc<MetaClient>,
    tenant_id: &str,
    manifest: &TrainingManifest,
    from: dlaas_net::Addr,
    responder: Resp,
) {
    let h = h.clone();
    let tenant = tenant_id.to_owned();
    let status = JobStatus::Pending;
    record(
        sim,
        meta,
        tenant_id,
        manifest,
        status,
        responder,
        move |sim, id, responder| {
            sim.metrics()
                .counter_series(metrics::API_SUBMISSIONS, ["accepted"])
                .inc();
            // In-quota jobs are admitted at submission: a zero admission wait,
            // so the per-tenant wait histogram covers every accepted job.
            sim.metrics()
                .histogram_series(metrics::TENANT_ADMISSION_WAIT, [&tenant])
                .observe(0.0);
            sim.mark(&api::RECORDED, id.as_str(), 0);
            responder.ok(sim, CoreResponse::Submitted { job: id.clone() });

            let lcm = h.kube.service_resolver(LCM_SERVICE);
            let deploy = CoreRequest::DeployJob { job: id };
            DEPLOY_RETRY.send(sim, &h.rpc, from, deploy, lcm, |_sim, _r| {});
        },
    );
}
