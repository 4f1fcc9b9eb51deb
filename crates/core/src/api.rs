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

use std::rc::Rc;

use dlaas_docstore::{Doc, Filter, Value};
use dlaas_kube::{pod_addr, Cleanup, ProcessCtx};
use dlaas_sim::{Sim, SimDuration};

use crate::config;
use crate::handles::{Handles, LCM_SERVICE};
use crate::job::{JobId, JobStatus};
use crate::manifest::TrainingManifest;
use crate::metrics;
use crate::mongo::{MetaClient, JOBS, TENANTS};
use crate::paths;
use crate::proto::{CoreRequest, CoreResponse};
use crate::tenant::Tenant;

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
    sim.mark("api", ctx.pod.as_str(), "up", 0);

    let h2 = h.clone();
    let meta2 = meta.clone();
    let ctx2 = ctx.clone();
    h.rpc.serve(addr.clone(), move |sim, req, responder| {
        if !ctx2.is_alive() {
            return; // crashed but not yet unregistered: drop the request
        }
        meter(sim, &meta2, req);
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

fn meter(sim: &mut Sim, meta: &Rc<MetaClient>, req: &CoreRequest) {
    let (key, kind) = match req {
        CoreRequest::Submit { api_key, .. } => (api_key, "submit"),
        CoreRequest::GetStatus { api_key, .. } => (api_key, "status"),
        CoreRequest::ListJobs { api_key } => (api_key, "list"),
        CoreRequest::Kill { api_key, .. } => (api_key, "kill"),
        CoreRequest::GetLogs { api_key, .. } => (api_key, "logs"),
        // Internal control-plane traffic is not user-metered.
        CoreRequest::DeployJob { .. } | CoreRequest::StopJob { .. } => return,
    };
    sim.metrics()
        .counter_series(metrics::API_REQUESTS, [kind])
        .inc();
    let filter = Filter::eq("_id", key.as_str());
    let update = dlaas_docstore::Update::inc(kind, 1);
    let meta2 = meta.clone();
    let key = key.clone();
    let kind = kind.to_owned();
    meta.update_one(sim, METERING, filter, update.clone(), move |sim, r| {
        if let Ok(false) = r {
            // First request from this key: create the counter document.
            let mut doc = dlaas_docstore::obj! { "_id" => key };
            update.apply(&mut doc);
            meta2.insert(sim, METERING, doc, move |_sim, _r| {
                // A concurrent insert from another replica may have won
                // the race; the duplicate-id rejection loses one count,
                // which metering tolerates.
                let _ = kind;
            });
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
                    let resolver = h.kube.service_resolver(LCM_SERVICE);
                    h.rpc.clone().call_service(
                        sim,
                        from,
                        LCM_SERVICE.into(),
                        resolver,
                        CoreRequest::StopJob { job },
                        config::RPC_TIMEOUT,
                        8,
                        SimDuration::from_millis(400),
                        move |sim, r| match r {
                            Ok(_) => responder.ok(sim, CoreResponse::Ok),
                            Err(e) => responder.err(sim, format!("kill failed: {e}")),
                        },
                    );
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
        CoreRequest::DeployJob { .. } | CoreRequest::StopJob { .. } => {
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
    let meta2 = meta.clone();
    meta.find_one(
        sim,
        TENANTS,
        Filter::eq("api_key", api_key),
        move |sim, r| {
            let tenant = match r {
                Ok(Some(doc)) => match Tenant::from_document(&doc) {
                    Some(t) => t,
                    None => return responder.err(sim, "corrupt tenant document"),
                },
                Ok(None) => {
                    sim.metrics()
                        .counter_series(metrics::API_AUTH_FAILURES, [])
                        .inc();
                    return responder.err(sim, "unauthorized");
                }
                Err(e) => return responder.err(sim, e.to_string()),
            };
            let filter = Filter::and(vec![
                Filter::eq("_id", job.as_str()),
                Filter::eq("tenant", tenant.id),
            ]);
            meta2.find_one(sim, JOBS, filter, move |sim, r| match r {
                Ok(Some(doc)) => then(sim, h, doc, responder),
                Ok(None) => responder.err(sim, "job not found"),
                Err(e) => responder.err(sim, e.to_string()),
            });
        },
    );
}

fn list_jobs(sim: &mut Sim, meta: &Rc<MetaClient>, api_key: String, responder: Resp) {
    let meta2 = meta.clone();
    meta.find_one(
        sim,
        TENANTS,
        Filter::eq("api_key", api_key),
        move |sim, r| {
            let tenant = match r {
                Ok(Some(doc)) => match Tenant::from_document(&doc) {
                    Some(t) => t,
                    None => return responder.err(sim, "corrupt tenant document"),
                },
                Ok(None) => {
                    sim.metrics()
                        .counter_series(metrics::API_AUTH_FAILURES, [])
                        .inc();
                    return responder.err(sim, "unauthorized");
                }
                Err(e) => return responder.err(sim, e.to_string()),
            };
            meta2.find(
                sim,
                JOBS,
                Filter::eq("tenant", tenant.id),
                move |sim, r| match r {
                    Ok(docs) => {
                        let ids = docs
                            .iter()
                            .filter_map(|d| d.path("_id").and_then(Value::as_str))
                            .map(JobId::new)
                            .collect();
                        responder.ok(sim, CoreResponse::Jobs(ids));
                    }
                    Err(e) => responder.err(sim, e.to_string()),
                },
            );
        },
    );
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
    let meta = meta.clone();
    let from = pod_addr(&ctx.pod);
    let meta2 = meta.clone();
    meta.find_one(
        sim,
        TENANTS,
        Filter::eq("api_key", api_key),
        move |sim, r| {
            let tenant = match r {
                Ok(Some(doc)) => match Tenant::from_document(&doc) {
                    Some(t) => t,
                    None => return responder.err(sim, "corrupt tenant document"),
                },
                Ok(None) => {
                    sim.metrics()
                        .counter_series(metrics::API_AUTH_FAILURES, [])
                        .inc();
                    return responder.err(sim, "unauthorized");
                }
                Err(e) => return responder.err(sim, e.to_string()),
            };
            // Quota: sum GPUs of the tenant's active jobs. An unlimited
            // tenant (max_gpus == 0) skips the scan entirely — fetching
            // every active job document just to ignore it is the single
            // largest per-submission cost at scale.
            if tenant.max_gpus == 0 {
                return record_and_deploy(sim, &h, &meta2, &tenant.id, manifest, from, responder);
            }
            // A job demanding more GPUs than the tenant's whole quota can
            // never be admitted — queueing it would head-of-line block
            // the tenant's fair queue forever. Reject it outright.
            if manifest.total_gpus() > tenant.max_gpus {
                sim.metrics()
                    .counter_series(metrics::API_SUBMISSIONS, ["rejected_quota"])
                    .inc();
                return responder.err(
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
            let h2 = h.clone();
            let meta3 = meta2.clone();
            meta2.find(sim, JOBS, quota_filter, move |sim, r| {
                let docs = match r {
                    Ok(d) => d,
                    Err(e) => return responder.err(sim, e.to_string()),
                };
                let in_use: u32 = docs.iter().map(|d| doc_gpus(d)).sum();
                if in_use + manifest.total_gpus() > tenant.max_gpus {
                    // Over quota: accept the job into the weighted fair
                    // queue instead of rejecting. The LCM's admission
                    // arbiter promotes it once the tenant has headroom.
                    return record_queued(sim, &meta3, &tenant.id, manifest, responder);
                }
                record_and_deploy(sim, &h2, &meta3, &tenant.id, manifest, from, responder);
            });
        },
    );
}

/// A job document's GPU demand. Documents written since the fairness
/// change carry a denormalized `gpus` field; older ones fall back to
/// parsing the stored manifest.
pub(crate) fn doc_gpus(doc: &Value) -> u32 {
    if let Some(g) = doc
        .path("gpus")
        .and_then(Value::as_i64)
        .and_then(|v| u32::try_from(v).ok())
    {
        return g;
    }
    doc.path("manifest")
        .and_then(Value::as_str)
        .and_then(|s| TrainingManifest::from_json(s).ok())
        .map(|m| m.total_gpus())
        .unwrap_or(0)
}

/// Durably record an over-quota job as QUEUED and acknowledge the client.
/// No DeployJob message is sent: the LCM's fair-queue arbiter admits the
/// job (QUEUED → PENDING) when the tenant has quota headroom, and its
/// normal pending sweep deploys it from there.
fn record_queued(
    sim: &mut Sim,
    meta: &Rc<MetaClient>,
    tenant_id: &str,
    manifest: TrainingManifest,
    responder: Resp,
) {
    let doc = MetaClient::job_document(
        tenant_id,
        &manifest,
        sim.now().as_micros(),
        JobStatus::Queued,
    );
    meta.insert(sim, JOBS, doc, move |sim, r| {
        let id = match r {
            Ok(id) => JobId::new(id),
            Err(e) => {
                sim.metrics()
                    .counter_series(metrics::API_SUBMISSIONS, ["error"])
                    .inc();
                return responder.err(sim, e.to_string());
            }
        };
        sim.metrics()
            .counter_series(metrics::API_SUBMISSIONS, ["queued"])
            .inc();
        sim.mark("api", id.as_str(), "queued", 0);
        responder.ok(sim, CoreResponse::Submitted { job: id });
    });
}

/// Durably record the job, acknowledge the client, then hand the job id to
/// the LCM fire-and-forget (the LCM scan is the dependability backstop if
/// that message — or the LCM itself — is lost).
fn record_and_deploy(
    sim: &mut Sim,
    h: &Handles,
    meta: &Rc<MetaClient>,
    tenant_id: &str,
    manifest: TrainingManifest,
    from: dlaas_net::Addr,
    responder: Resp,
) {
    let doc = MetaClient::job_document(
        tenant_id,
        &manifest,
        sim.now().as_micros(),
        JobStatus::Pending,
    );
    let h = h.clone();
    let tenant_id = tenant_id.to_owned();
    meta.insert(sim, JOBS, doc, move |sim, r| {
        let id = match r {
            Ok(id) => JobId::new(id),
            Err(e) => {
                sim.metrics()
                    .counter_series(metrics::API_SUBMISSIONS, ["error"])
                    .inc();
                return responder.err(sim, e.to_string());
            }
        };
        sim.metrics()
            .counter_series(metrics::API_SUBMISSIONS, ["accepted"])
            .inc();
        // In-quota jobs are admitted at submission: a zero admission wait,
        // so the per-tenant wait histogram covers every accepted job.
        sim.metrics()
            .histogram_series(metrics::TENANT_ADMISSION_WAIT, [&tenant_id])
            .observe(0.0);
        sim.mark("api", id.as_str(), "recorded", 0);
        responder.ok(sim, CoreResponse::Submitted { job: id.clone() });

        let resolver = h.kube.service_resolver(LCM_SERVICE);
        h.rpc.call_service(
            sim,
            from,
            LCM_SERVICE.into(),
            resolver,
            CoreRequest::DeployJob { job: id },
            config::RPC_TIMEOUT,
            10,
            SimDuration::from_millis(400),
            |_sim, _r| {},
        );
    });
}
