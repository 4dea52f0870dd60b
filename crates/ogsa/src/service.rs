//! The Grid service model: service instances, factories, handles, and
//! service data elements (paper §4: "OGSA defines standard Web service
//! interfaces and behaviors that add to Web services the concepts of
//! stateful services and secure invocation").

use gridsec_pki::validate::ValidatedIdentity;
use gridsec_xml::Element;
use std::collections::HashMap;

use crate::OgsaError;

/// Per-request context handed to a service by its hosting environment.
/// By the time a service sees this, authentication and authorization have
/// already happened — the paper's "the application, knowing that the
/// hosting environment has already taken care of security, can focus on
/// application-specific request processing".
pub struct RequestContext {
    /// Authenticated caller (never absent for secured operations).
    pub caller: ValidatedIdentity,
    /// Logical time of the request.
    pub now: u64,
    /// The service's own handle.
    pub handle: String,
}

/// A stateful Grid service instance.
pub trait GridService {
    /// The service type name (factory key).
    fn service_type(&self) -> &str;

    /// Handle an operation. `payload` is the request body element; the
    /// returned element becomes the reply body.
    fn invoke(
        &mut self,
        ctx: &RequestContext,
        operation: &str,
        payload: &Element,
    ) -> Result<Element, OgsaError>;

    /// Query a service data element by name (paper §4: "Grid services can
    /// define, as part of their interface, service data elements that
    /// other entities can query").
    fn service_data(&self, _name: &str) -> Option<Element> {
        None
    }

    /// Lifetime hook: called when the hosting environment destroys the
    /// instance.
    fn on_destroy(&mut self) {}
}

/// A factory closure: creates a service instance from creation arguments.
pub(crate) type Factory =
    Box<dyn FnMut(&RequestContext, &Element) -> Result<Box<dyn GridService>, OgsaError>>;

/// The instance registry inside one hosting environment.
#[derive(Default)]
pub struct ServiceRegistry {
    factories: HashMap<String, Factory>,
    instances: HashMap<String, Box<dyn GridService>>,
    next_id: u64,
}

impl ServiceRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        ServiceRegistry::default()
    }

    /// Register a factory for a service type.
    pub fn register_factory(&mut self, service_type: &str, factory: Factory) {
        self.factories.insert(service_type.to_string(), factory);
    }

    /// Create an instance (the `createService` operation). Returns the new
    /// Grid service handle (GSH).
    pub(crate) fn create(
        &mut self,
        service_type: &str,
        ctx: &RequestContext,
        args: &Element,
    ) -> Result<String, OgsaError> {
        let factory = self
            .factories
            .get_mut(service_type)
            .ok_or_else(|| OgsaError::NoSuchFactory(service_type.to_string()))?;
        let instance = factory(ctx, args)?;
        self.next_id += 1;
        let handle = format!("gsh:{}-{}", service_type, self.next_id);
        self.instances.insert(handle.clone(), instance);
        Ok(handle)
    }

    /// Dispatch an operation to an instance.
    pub(crate) fn invoke(
        &mut self,
        handle: &str,
        ctx: &RequestContext,
        operation: &str,
        payload: &Element,
    ) -> Result<Element, OgsaError> {
        let instance = self
            .instances
            .get_mut(handle)
            .ok_or_else(|| OgsaError::NoSuchService(handle.to_string()))?;
        instance.invoke(ctx, operation, payload)
    }

    /// Query service data on an instance.
    pub(crate) fn query(&self, handle: &str, name: &str) -> Result<Option<Element>, OgsaError> {
        let instance = self
            .instances
            .get(handle)
            .ok_or_else(|| OgsaError::NoSuchService(handle.to_string()))?;
        Ok(instance.service_data(name))
    }

    /// Destroy an instance (lifetime management).
    pub(crate) fn destroy(&mut self, handle: &str) -> Result<(), OgsaError> {
        let mut instance = self
            .instances
            .remove(handle)
            .ok_or_else(|| OgsaError::NoSuchService(handle.to_string()))?;
        instance.on_destroy();
        Ok(())
    }

    /// The type of a live instance.
    pub(crate) fn service_type_of(&self, handle: &str) -> Option<&str> {
        self.instances.get(handle).map(|i| i.service_type())
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;

    impl ServiceRegistry {
        /// Insert a pre-built instance under a well-known handle (persistent
        /// services such as factories themselves).
        fn insert(&mut self, handle: &str, instance: Box<dyn GridService>) {
            self.instances.insert(handle.to_string(), instance);
        }

        /// Handles of all live instances.
        fn handles(&self) -> Vec<String> {
            let mut v: Vec<String> = self.instances.keys().cloned().collect();
            v.sort();
            v
        }
    }

    fn test_ctx() -> RequestContext {
        let mut rng = ChaChaRng::from_seed_bytes(b"svc ctx");
        let ca = CertificateAuthority::create_root(
            &mut rng,
            DistinguishedName::parse("/O=G/CN=CA").unwrap(),
            512,
            0,
            1000,
        );
        let cred = ca.issue_identity(
            &mut rng,
            DistinguishedName::parse("/O=G/CN=U").unwrap(),
            512,
            0,
            1000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        RequestContext {
            caller: validate_chain(cred.chain(), &trust, 10).unwrap(),
            now: 10,
            handle: "gsh:test".to_string(),
        }
    }

    /// A counter service used across the OGSA tests.
    struct Counter {
        value: i64,
        destroyed: bool,
    }

    impl GridService for Counter {
        fn service_type(&self) -> &str {
            "counter"
        }
        fn invoke(
            &mut self,
            _ctx: &RequestContext,
            operation: &str,
            payload: &Element,
        ) -> Result<Element, OgsaError> {
            match operation {
                "add" => {
                    let delta: i64 = payload
                        .text_content()
                        .parse()
                        .map_err(|_| OgsaError::Malformed("add wants an integer"))?;
                    self.value += delta;
                    Ok(Element::new("value").with_text(self.value.to_string()))
                }
                "get" => Ok(Element::new("value").with_text(self.value.to_string())),
                other => Err(OgsaError::Application(format!("unknown op {other}"))),
            }
        }
        fn service_data(&self, name: &str) -> Option<Element> {
            (name == "currentValue")
                .then(|| Element::new("sde:currentValue").with_text(self.value.to_string()))
        }
        fn on_destroy(&mut self) {
            self.destroyed = true;
        }
    }

    fn registry_with_counter() -> ServiceRegistry {
        let mut reg = ServiceRegistry::new();
        reg.register_factory(
            "counter",
            Box::new(|_ctx, args| {
                let start: i64 = args.text_content().parse().unwrap_or(0);
                Ok(Box::new(Counter {
                    value: start,
                    destroyed: false,
                }))
            }),
        );
        reg
    }

    #[test]
    fn create_invoke_destroy_lifecycle() {
        let mut reg = registry_with_counter();
        let ctx = test_ctx();
        let h = reg
            .create("counter", &ctx, &Element::new("args").with_text("5"))
            .unwrap();
        assert!(h.starts_with("gsh:counter-"));
        assert_eq!(reg.instance_count(), 1);

        let r = reg
            .invoke(&h, &ctx, "add", &Element::new("a").with_text("3"))
            .unwrap();
        assert_eq!(r.text_content(), "8");

        reg.destroy(&h).unwrap();
        assert_eq!(reg.instance_count(), 0);
        assert!(matches!(
            reg.invoke(&h, &ctx, "get", &Element::new("a")),
            Err(OgsaError::NoSuchService(_))
        ));
    }

    #[test]
    fn distinct_instances_have_distinct_state() {
        let mut reg = registry_with_counter();
        let ctx = test_ctx();
        let h1 = reg
            .create("counter", &ctx, &Element::new("a").with_text("0"))
            .unwrap();
        let h2 = reg
            .create("counter", &ctx, &Element::new("a").with_text("100"))
            .unwrap();
        assert_ne!(h1, h2);
        reg.invoke(&h1, &ctx, "add", &Element::new("a").with_text("1"))
            .unwrap();
        let v2 = reg.invoke(&h2, &ctx, "get", &Element::new("a")).unwrap();
        assert_eq!(v2.text_content(), "100");
    }

    #[test]
    fn service_data_query() {
        let mut reg = registry_with_counter();
        let ctx = test_ctx();
        let h = reg
            .create("counter", &ctx, &Element::new("a").with_text("7"))
            .unwrap();
        let sde = reg.query(&h, "currentValue").unwrap().unwrap();
        assert_eq!(sde.text_content(), "7");
        assert!(reg.query(&h, "nonexistent").unwrap().is_none());
        assert!(reg.query("gsh:ghost", "x").is_err());
    }

    #[test]
    fn unknown_factory_rejected() {
        let mut reg = registry_with_counter();
        let ctx = test_ctx();
        assert!(matches!(
            reg.create("warp-drive", &ctx, &Element::new("a")),
            Err(OgsaError::NoSuchFactory(_))
        ));
    }

    #[test]
    fn application_errors_propagate() {
        let mut reg = registry_with_counter();
        let ctx = test_ctx();
        let h = reg.create("counter", &ctx, &Element::new("a")).unwrap();
        assert!(matches!(
            reg.invoke(&h, &ctx, "frobnicate", &Element::new("a")),
            Err(OgsaError::Application(_))
        ));
        assert!(matches!(
            reg.invoke(&h, &ctx, "add", &Element::new("a").with_text("NaN")),
            Err(OgsaError::Malformed(_))
        ));
    }

    #[test]
    fn well_known_handles() {
        let mut reg = registry_with_counter();
        reg.insert(
            "gsh:persistent-counter",
            Box::new(Counter {
                value: 42,
                destroyed: false,
            }),
        );
        assert_eq!(
            reg.service_type_of("gsh:persistent-counter"),
            Some("counter")
        );
        assert_eq!(reg.handles(), vec!["gsh:persistent-counter".to_string()]);
    }
}
