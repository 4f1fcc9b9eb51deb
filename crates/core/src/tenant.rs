//! Multi-tenancy: tenants, API keys and GPU quotas.
//!
//! DLaaS is multi-tenant: the API service "handles all the incoming API
//! requests including load balancing, metering, and access management"
//! (§III-c). Tenants are stored in the metadata store so every API
//! replica — including freshly restarted ones — sees the same registry.

use dlaas_docstore::{obj, Value};

/// One tenant of the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Tenant id (organization).
    pub id: String,
    /// Secret used on every API call.
    pub api_key: String,
    /// Maximum GPUs the tenant may hold concurrently (0 = unlimited).
    pub max_gpus: u32,
    /// Fair-share weight for over-quota admission: a tenant with weight 4
    /// gets 4× the admission share of a weight-1 tenant when both have
    /// queued jobs. Never 0 (clamped to 1 on parse).
    pub weight: u32,
}

impl Tenant {
    /// Creates a tenant with the default fair-share weight of 1.
    pub fn new(id: impl Into<String>, api_key: impl Into<String>, max_gpus: u32) -> Self {
        Tenant {
            id: id.into(),
            api_key: api_key.into(),
            max_gpus,
            weight: 1,
        }
    }

    /// Sets the fair-share weight (clamped to at least 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// The document stored in the tenants collection.
    pub fn to_document(&self) -> Value {
        obj! {
            "_id" => self.id.clone(),
            "api_key" => self.api_key.clone(),
            "max_gpus" => self.max_gpus,
            "weight" => self.weight,
        }
    }

    /// Parses a stored tenant document, if well-formed. Documents written
    /// before fair-share weights existed carry no `weight` field; they
    /// parse as weight 1.
    pub fn from_document(doc: &Value) -> Option<Tenant> {
        let int = |v: &Value| u32::try_from(v.as_i64()?).ok();
        let weight = match doc.path("weight") {
            Some(v) => int(v)?.max(1),
            None => 1,
        };
        Some(Tenant {
            id: doc.path("_id")?.as_str()?.to_owned(),
            api_key: doc.path("api_key")?.as_str()?.to_owned(),
            max_gpus: int(doc.path("max_gpus")?)?,
            weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_roundtrip() {
        let t = Tenant::new("acme", "key-123", 16).with_weight(4);
        let doc = t.to_document();
        assert_eq!(Tenant::from_document(&doc), Some(t));
    }

    #[test]
    fn weight_defaults_and_clamps() {
        // Pre-weight documents parse as weight 1.
        let legacy = obj! {"_id" => "x", "api_key" => "k", "max_gpus" => 8};
        assert_eq!(Tenant::from_document(&legacy).unwrap().weight, 1);
        // A stored weight of 0 would divide the fair share by zero; clamp.
        let zero = obj! {"_id" => "x", "api_key" => "k", "max_gpus" => 8, "weight" => 0};
        assert_eq!(Tenant::from_document(&zero).unwrap().weight, 1);
        assert_eq!(Tenant::new("a", "k", 4).with_weight(0).weight, 1);
    }

    #[test]
    fn an_integer_out_of_range_is_refused_not_wrapped() {
        // `as u32` read a weight of -1 as u32::MAX, the largest fair share
        // there is, and 2^32 + 1 GPUs as a quota of 1.
        let doc = |max_gpus: i64, weight: i64| {
            obj! {"_id" => "x", "api_key" => "k", "max_gpus" => max_gpus, "weight" => weight}
        };
        assert_eq!(Tenant::from_document(&doc(8, -1)), None);
        assert_eq!(Tenant::from_document(&doc(4_294_967_297, 1)), None);
        assert_eq!(Tenant::from_document(&doc(-1, 1)), None);
        assert_eq!(Tenant::from_document(&doc(8, 1 << 32)), None);
        let edge = Tenant::from_document(&doc(i64::from(u32::MAX), i64::from(u32::MAX)));
        assert_eq!(
            edge.map(|t| (t.max_gpus, t.weight)),
            Some((u32::MAX, u32::MAX))
        );
    }

    #[test]
    fn malformed_document_rejected() {
        assert_eq!(Tenant::from_document(&obj! {"_id" => "x"}), None);
        assert_eq!(Tenant::from_document(&Value::Null), None);
    }
}
