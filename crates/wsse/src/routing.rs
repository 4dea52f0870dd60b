//! WS-Routing: application-level message paths (the paper's §6 future
//! work — "we are interested in exploiting WS-Routing to improve
//! firewall compatibility").
//!
//! The idea: because GT3 security lives in the *message* (signed or
//! context-protected envelopes), a message can traverse intermediaries —
//! including firewall-straddling routers — without terminating security
//! at each hop. A `wsr:path` header names the remaining forward hops;
//! each intermediary pops the next hop and forwards the envelope intact.
//! Combined with §4.4's observable security headers, a perimeter can
//! route *and* filter without holding any keys.

use gridsec_xml::Element;

use crate::soap::Envelope;
use crate::WsseError;

/// Header element name.
pub(crate) const PATH_HEADER: &str = "wsr:path";

/// A WS-Routing path: the remaining forward hops and the final endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingPath {
    /// Intermediaries still to traverse, in order.
    pub via: Vec<String>,
    /// The ultimate destination.
    pub to: String,
}

impl RoutingPath {
    /// A path through intermediaries.
    pub fn through(via: &[&str], to: &str) -> Self {
        RoutingPath {
            via: via.iter().map(|s| s.to_string()).collect(),
            to: to.to_string(),
        }
    }

    fn to_element(&self) -> Element {
        let mut el =
            Element::new(PATH_HEADER).with_child(Element::new("wsr:to").with_text(self.to.clone()));
        let mut fwd = Element::new("wsr:fwd");
        for v in &self.via {
            fwd.push_child(Element::new("wsr:via").with_text(v.clone()));
        }
        el.push_child(fwd);
        el
    }

    fn from_element(el: &Element) -> Result<RoutingPath, WsseError> {
        let to = el
            .find("wsr:to")
            .ok_or(WsseError::Missing("wsr:to"))?
            .text_content();
        let via = el
            .find("wsr:fwd")
            .map(|f| f.find_all("wsr:via").map(|v| v.text_content()).collect())
            .unwrap_or_default();
        Ok(RoutingPath { via, to })
    }
}

/// Attach (or replace) the routing path on an envelope.
pub fn set_path(env: &mut Envelope, path: &RoutingPath) {
    env.headers.retain(|h| h.name != PATH_HEADER);
    env.headers.push(path.to_element());
}

/// Read the routing path, if any.
pub(crate) fn get_path(env: &Envelope) -> Result<Option<RoutingPath>, WsseError> {
    env.headers
        .iter()
        .find(|h| h.name == PATH_HEADER)
        .map(RoutingPath::from_element)
        .transpose()
}

/// Intermediary step: pop the next hop from the envelope's path.
///
/// Returns `Some(next_endpoint)` — the endpoint this intermediary should
/// forward to (an intermediate via, or the final `to`) — and rewrites the
/// header. Returns `None` if the envelope has no path header (the
/// message is already at its destination).
pub fn advance(env: &mut Envelope) -> Result<Option<String>, WsseError> {
    let Some(mut path) = get_path(env)? else {
        return Ok(None);
    };
    if path.via.is_empty() {
        // Final hop: deliver to `to` and strip the header.
        env.headers.retain(|h| h.name != PATH_HEADER);
        Ok(Some(path.to))
    } else {
        let next = path.via.remove(0);
        set_path(env, &path);
        Ok(Some(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RoutingPath {
        /// A direct path.
        fn direct(to: &str) -> Self {
            RoutingPath {
                via: Vec::new(),
                to: to.to_string(),
            }
        }
    }

    #[test]
    fn path_roundtrip() {
        let mut env = Envelope::request("op", Element::new("x"));
        let path = RoutingPath::through(&["edge", "dmz"], "service-host");
        set_path(&mut env, &path);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(get_path(&parsed).unwrap().unwrap(), path);
    }

    #[test]
    fn advance_walks_the_path() {
        let mut env = Envelope::request("op", Element::new("x"));
        set_path(&mut env, &RoutingPath::through(&["edge", "dmz"], "svc"));
        assert_eq!(advance(&mut env).unwrap(), Some("edge".to_string()));
        assert_eq!(advance(&mut env).unwrap(), Some("dmz".to_string()));
        assert_eq!(advance(&mut env).unwrap(), Some("svc".to_string()));
        // Header stripped at the end; further advances are None.
        assert_eq!(advance(&mut env).unwrap(), None);
        assert!(get_path(&env).unwrap().is_none());
    }

    #[test]
    fn direct_path_delivers_immediately() {
        let mut env = Envelope::request("op", Element::new("x"));
        set_path(&mut env, &RoutingPath::direct("svc"));
        assert_eq!(advance(&mut env).unwrap(), Some("svc".to_string()));
        assert_eq!(advance(&mut env).unwrap(), None);
    }

    #[test]
    fn set_path_replaces_existing() {
        let mut env = Envelope::request("op", Element::new("x"));
        set_path(&mut env, &RoutingPath::direct("a"));
        set_path(&mut env, &RoutingPath::direct("b"));
        assert_eq!(get_path(&env).unwrap().unwrap().to, "b");
        assert_eq!(
            env.headers.iter().filter(|h| h.name == PATH_HEADER).count(),
            1
        );
    }

    #[test]
    fn malformed_path_rejected() {
        let mut env = Envelope::request("op", Element::new("x"));
        env.headers.push(Element::new(PATH_HEADER)); // missing wsr:to
        assert!(get_path(&env).is_err());
    }
}
