//! SOAP envelopes and the WS-Security header.
//!
//! GT3 sends every message — including security-protocol messages — as a
//! SOAP envelope, which is what lets "entities in the network recognize
//! whether and how an interaction is secured" (paper §4.4).

use gridsec_xml::Element;

use crate::WsseError;

/// SOAP namespace URI (1.1, as in 2003-era GT3).
pub(crate) const SOAP_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// WS-Security header element name.
pub(crate) const SECURITY_HEADER: &str = "wsse:Security";

/// A SOAP envelope: action, headers, body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// Optional action routing hint (e.g. `"createService"`).
    pub action: Option<String>,
    /// Header child elements (`wsse:Security`, addressing, ...).
    pub headers: Vec<Element>,
    /// Body child elements (the payload).
    pub body: Vec<Element>,
}

impl Envelope {
    /// Empty envelope.
    pub(crate) fn new() -> Self {
        Envelope {
            action: None,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Envelope with one payload element and an action.
    pub fn request(action: &str, payload: Element) -> Self {
        Envelope {
            action: Some(action.to_string()),
            headers: Vec::new(),
            body: vec![payload],
        }
    }

    /// The `wsse:Security` header, if present.
    pub(crate) fn security_header(&self) -> Option<&Element> {
        self.headers.iter().find(|h| h.name == SECURITY_HEADER)
    }

    /// The `wsse:Security` header, created on demand.
    pub(crate) fn security_header_mut(&mut self) -> &mut Element {
        if !self.headers.iter().any(|h| h.name == SECURITY_HEADER) {
            self.headers.push(Element::new(SECURITY_HEADER));
        }
        self.headers
            .iter_mut()
            .find(|h| h.name == SECURITY_HEADER)
            .unwrap()
    }

    /// Whether this envelope carries any security header — the property a
    /// firewall can check per §4.4 ("a firewall can recognize whether a
    /// connection is authenticated").
    pub fn is_secured(&self) -> bool {
        self.security_header()
            .is_some_and(|h| !h.children.is_empty())
    }

    /// Render the `<soap:Envelope>` element.
    pub fn to_element(&self) -> Element {
        let mut header = Element::new("soap:Header");
        if let Some(action) = &self.action {
            header.push_child(Element::new("wsa:Action").with_text(action.clone()));
        }
        for h in &self.headers {
            header.push_child(h.clone());
        }
        let mut body = Element::new("soap:Body").with_attr("wsu:Id", "Body");
        for b in &self.body {
            body.push_child(b.clone());
        }
        Element::new("soap:Envelope")
            .with_attr("xmlns:soap", SOAP_NS)
            .with_child(header)
            .with_child(body)
    }

    /// Serialize to XML text: header and body children are written
    /// straight into one buffer, byte-identical to
    /// `self.to_element().to_xml()` without building that tree.
    pub fn to_xml(&self) -> String {
        // The fixed tags, `wsa:Action`'s included, come to under 192 bytes;
        // the elements size the rest, so a large body is written once.
        let elements = self.headers.iter().chain(&self.body);
        let mut out = String::with_capacity(
            192 + self.action.as_ref().map_or(0, String::len)
                + elements.map(Element::xml_len_hint).sum::<usize>(),
        );
        out.push_str("<soap:Envelope xmlns:soap=\"");
        out.push_str(SOAP_NS);
        out.push_str("\">");
        if self.action.is_none() && self.headers.is_empty() {
            out.push_str("<soap:Header/>");
        } else {
            out.push_str("<soap:Header>");
            if let Some(action) = &self.action {
                Element::new("wsa:Action")
                    .with_text(action.as_str())
                    .write_xml(&mut out);
            }
            for h in &self.headers {
                h.write_xml(&mut out);
            }
            out.push_str("</soap:Header>");
        }
        out.push_str("<soap:Body wsu:Id=\"Body\"");
        if self.body.is_empty() {
            out.push_str("/>");
        } else {
            out.push('>');
            for b in &self.body {
                b.write_xml(&mut out);
            }
            out.push_str("</soap:Body>");
        }
        out.push_str("</soap:Envelope>");
        out
    }

    /// Parse an envelope from XML text. Header and body children are
    /// moved out of the parsed tree, not cloned.
    pub fn parse(xml: &str) -> Result<Envelope, WsseError> {
        let root = Element::parse(xml)?;
        if root.local_name() != "Envelope" {
            return Err(WsseError::Missing("soap:Envelope"));
        }
        let (mut header, mut body) = (None, None);
        for child in root.into_child_elements() {
            match child.local_name() {
                "Header" if header.is_none() => header = Some(child),
                "Body" if body.is_none() => body = Some(child),
                _ => {}
            }
        }
        let body = body.ok_or(WsseError::Missing("soap:Body"))?;
        let mut action = None;
        let mut headers = Vec::new();
        for child in header.into_iter().flat_map(Element::into_child_elements) {
            if child.local_name() == "Action" {
                action = Some(child.text_content());
            } else {
                headers.push(child);
            }
        }
        Ok(Envelope {
            action,
            headers,
            body: body.into_child_elements().collect(),
        })
    }

    /// First body element, if any.
    pub fn payload(&self) -> Option<&Element> {
        self.body.first()
    }
}

impl Default for Envelope {
    fn default() -> Self {
        Envelope::new()
    }
}

/// A WS-Security `Timestamp`: freshness window for a message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Timestamp {
    /// Creation time.
    pub created: u64,
    /// Expiry time.
    pub expires: u64,
}

impl Timestamp {
    /// Render as a `wsu:Timestamp` element.
    pub fn to_element(&self) -> Element {
        Element::new("wsu:Timestamp")
            .with_child(Element::new("wsu:Created").with_text(self.created.to_string()))
            .with_child(Element::new("wsu:Expires").with_text(self.expires.to_string()))
    }

    /// Read from a `wsu:Timestamp` element.
    pub(crate) fn from_element(el: &Element) -> Result<Timestamp, WsseError> {
        let created = el
            .find("Created")
            .ok_or(WsseError::Missing("wsu:Created"))?
            .text_content()
            .parse()
            .map_err(|_| WsseError::Missing("numeric wsu:Created"))?;
        let expires = el
            .find("Expires")
            .ok_or(WsseError::Missing("wsu:Expires"))?
            .text_content()
            .parse()
            .map_err(|_| WsseError::Missing("numeric wsu:Expires"))?;
        Ok(Timestamp { created, expires })
    }

    /// Enforce freshness at `now`.
    pub(crate) fn check(&self, now: u64) -> Result<(), WsseError> {
        if now > self.expires {
            return Err(WsseError::Stale {
                now,
                expires: self.expires,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let env = Envelope::request(
            "createService",
            Element::new("gram:JobRequest").with_text("/bin/ls"),
        );
        let xml = env.to_xml();
        let parsed = Envelope::parse(&xml).unwrap();
        assert_eq!(parsed.action.as_deref(), Some("createService"));
        assert_eq!(parsed.payload().unwrap().name, "gram:JobRequest");
        assert_eq!(parsed.payload().unwrap().text_content(), "/bin/ls");
    }

    #[test]
    fn security_header_on_demand() {
        let mut env = Envelope::new();
        assert!(env.security_header().is_none());
        assert!(!env.is_secured());
        env.security_header_mut()
            .push_child(Element::new("wsse:BinarySecurityToken"));
        assert!(env.security_header().is_some());
        assert!(env.is_secured());
        // Idempotent: only one Security header.
        env.security_header_mut();
        assert_eq!(
            env.headers
                .iter()
                .filter(|h| h.name == SECURITY_HEADER)
                .count(),
            1
        );
    }

    #[test]
    fn security_header_survives_roundtrip() {
        let mut env = Envelope::request("op", Element::new("x"));
        env.security_header_mut()
            .push_child(Element::new("t").with_text("tok"));
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.is_secured());
        assert_eq!(
            parsed
                .security_header()
                .unwrap()
                .find("t")
                .unwrap()
                .text_content(),
            "tok"
        );
    }

    #[test]
    fn missing_body_rejected() {
        assert!(matches!(
            Envelope::parse("<soap:Envelope><soap:Header/></soap:Envelope>"),
            Err(WsseError::Missing(_))
        ));
        assert!(Envelope::parse("<NotAnEnvelope/>").is_err());
    }

    #[test]
    fn timestamp_roundtrip_and_check() {
        let ts = Timestamp {
            created: 100,
            expires: 400,
        };
        let parsed = Timestamp::from_element(&ts.to_element()).unwrap();
        assert_eq!(parsed, ts);
        assert!(parsed.check(300).is_ok());
        assert!(matches!(parsed.check(500), Err(WsseError::Stale { .. })));
    }

    #[test]
    fn empty_body_allowed() {
        let env = Envelope::new();
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.payload().is_none());
    }
}
