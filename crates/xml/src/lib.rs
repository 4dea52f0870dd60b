//! # gridsec-xml
//!
//! A minimal XML infoset for the `gridsec` reproduction of *Security for
//! Grid Services* (Welch et al., HPDC 2003).
//!
//! GT3 moves all GSI exchanges onto SOAP with WS-Security headers,
//! XML-Signature, and XML-Encryption. The Rust ecosystem substitution
//! (`DESIGN.md` §2) is to implement the minimal XML machinery those
//! layers need, from scratch:
//!
//! * [`Element`]/[`Node`] — an element tree with attributes and text.
//! * [`Element::parse`] — a strict, entity-aware, non-validating parser
//!   (no DTDs, no processing instructions beyond the XML declaration).
//! * [`Element::to_xml`] — compact serialization with escaping.
//! * [`Element::canonical_xml`] — deterministic canonical form
//!   ("c14n-lite"): attributes sorted by name, fixed quoting, no
//!   insignificant whitespace. This plays the role Exclusive XML
//!   Canonicalization plays under real XML-Signature: both signer and
//!   verifier derive identical bytes from equivalent infosets.
//!
//! Writer and parser work on runs, in one pass, into one buffer: the
//! writer sizes its output from the tree, finds the next character that
//! needs escaping 32 bytes at a time and copies everything before it
//! whole ([`Element::write_xml`] appends, so an envelope and its parts
//! share a buffer); the parser finds `<`, the closing quote and `&` by
//! slice search and unescapes straight from the input `&str` into the
//! node's `String`. A megabyte of text costs each of them one look and
//! one copy per byte.
//!
//! Namespace prefixes are kept as literal parts of names (`wsse:Security`)
//! — sufficient for a closed protocol suite where we control both ends,
//! and documented as a simplification in `DESIGN.md`.
//!
//! ## Example
//!
//! ```
//! use gridsec_xml::Element;
//!
//! let env = Element::new("soap:Envelope")
//!     .with_attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
//!     .with_child(Element::new("soap:Body").with_text("hi & bye"));
//! let xml = env.to_xml();
//! let parsed = Element::parse(&xml).unwrap();
//! assert_eq!(parsed.find("soap:Body").unwrap().text_content(), "hi & bye");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parser;

pub use parser::XmlError;

/// A node in an element's child list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A text run (unescaped form).
    Text(String),
}

/// An XML element: name, attributes, children.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Element {
    /// Qualified name as written, e.g. `wsse:Security`.
    pub name: String,
    /// Attributes in document order (qualified name, unescaped value).
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Builder API
    // ------------------------------------------------------------------

    /// Builder: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: append a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: append a text node.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Set (or replace) an attribute in place.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Append a child element in place.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append a text node in place.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Attribute value by qualified name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The element's local name (after any `prefix:`).
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// First direct child element with the given qualified name, or —
    /// when `name` has no prefix — matching by local name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| Self::name_matches(e, name))
    }

    /// All direct child elements matching (same rule as [`Element::find`]).
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements()
            .filter(move |e| Self::name_matches(e, name))
    }

    fn name_matches(e: &Element, name: &str) -> bool {
        if name.contains(':') {
            e.name == name
        } else {
            e.local_name() == name
        }
    }

    /// Walk a path of child names from this element.
    pub fn path(&self, names: &[&str]) -> Option<&Element> {
        let mut cur = self;
        for n in names {
            cur = cur.find(n)?;
        }
        Some(cur)
    }

    /// Direct child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Direct child elements, by value: how a consumer takes a parsed
    /// tree apart without cloning its subtrees.
    pub fn into_child_elements(self) -> impl Iterator<Item = Element> {
        self.children.into_iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Concatenated text of direct text children.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Depth-first search for an element with attribute `attr` == `value`
    /// (how XML-Signature `Reference URI="#id"` resolution works).
    pub fn find_by_attr<'a>(&'a self, attr: &str, value: &str) -> Option<&'a Element> {
        if self.attr(attr) == Some(value) {
            return Some(self);
        }
        for c in self.child_elements() {
            if let Some(found) = c.find_by_attr(attr, value) {
                return Some(found);
            }
        }
        None
    }

    /// Depth-first search for the first descendant with the given name
    /// (self included).
    pub fn find_descendant(&self, name: &str) -> Option<&Element> {
        if Self::name_matches(self, name) {
            return Some(self);
        }
        for c in self.child_elements() {
            if let Some(found) = c.find_descendant(name) {
                return Some(found);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Compact serialization, attributes in document order.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.xml_len_hint());
        self.write_xml(&mut out);
        out
    }

    /// Append the compact serialization to `out` — what [`Element::to_xml`]
    /// returns, without a buffer of its own, so a caller writing several
    /// elements (or an envelope around them) fills one `String`.
    pub fn write_xml(&self, out: &mut String) {
        self.write(out, false);
    }

    /// Canonical serialization: attributes sorted by name, fixed quoting,
    /// explicit end tags. Equivalent infosets yield identical bytes, which
    /// is the property XML-Signature digesting requires.
    pub fn canonical_xml(&self) -> String {
        let mut out = String::with_capacity(self.xml_len_hint());
        self.write(&mut out, true);
        out
    }

    /// Serialized length when nothing needs escaping (canonical form with
    /// its explicit end tags; the compact form is at most that): what to
    /// reserve before [`Element::write_xml`] so that a large text node is
    /// not copied again by the buffer growing under it.
    pub fn xml_len_hint(&self) -> usize {
        let attrs: usize = self
            .attributes
            .iter()
            .map(|(k, v)| k.len() + v.len() + 4)
            .sum();
        let children: usize = self
            .children
            .iter()
            .map(|c| match c {
                Node::Element(e) => e.xml_len_hint(),
                Node::Text(t) => t.len(),
            })
            .sum();
        2 * self.name.len() + 5 + attrs + children
    }

    fn write(&self, out: &mut String, canonical: bool) {
        out.push('<');
        out.push_str(&self.name);
        if canonical && self.attributes.len() > 1 {
            let mut attrs: Vec<&(String, String)> = self.attributes.iter().collect();
            attrs.sort();
            for (k, v) in attrs {
                write_attr(out, k, v);
            }
        } else {
            for (k, v) in &self.attributes {
                write_attr(out, k, v);
            }
        }
        if self.children.is_empty() && !canonical {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for c in &self.children {
            match c {
                Node::Element(e) => e.write(out, canonical),
                Node::Text(t) => escape_into(out, t, false),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parse a document; returns the root element.
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        parser::parse(input)
    }
}

fn write_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    escape_into(out, value, true);
    out.push('"');
}

/// The one escaper: append `s` to `out` with `&`, `<`, `>` (and, in an
/// attribute value, both quotes) replaced by their entities. Runs between
/// specials are copied whole; all five specials are ASCII, so every run
/// boundary is a character boundary.
fn escape_into(out: &mut String, s: &str, attr: bool) {
    let mut rest = s;
    while let Some(i) = first_special(rest.as_bytes(), attr) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Index of the first byte that must be escaped. Asks of 32 bytes at a
/// time whether any is special, without a branch per byte: base64 text is
/// made of near misses (`+`, `/` and the digits sit between `&` and `>`),
/// which a byte-at-a-time test mispredicts on every few characters.
fn first_special(s: &[u8], attr: bool) -> Option<usize> {
    let special = |b: &u8| matches!(b, b'&' | b'<' | b'>') || (attr && matches!(b, b'"' | b'\''));
    let mut base = 0;
    for chunk in s.chunks(32) {
        if chunk.iter().fold(false, |any, b| any | special(b)) {
            return chunk.iter().position(special).map(|i| base + i);
        }
        base += chunk.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let el = Element::new("a")
            .with_attr("id", "1")
            .with_child(Element::new("b").with_text("x"))
            .with_child(Element::new("ns:c"))
            .with_child(Element::new("b").with_text("y"));
        assert_eq!(el.attr("id"), Some("1"));
        assert_eq!(el.attr("missing"), None);
        assert_eq!(el.find("b").unwrap().text_content(), "x");
        assert_eq!(el.find_all("b").count(), 2);
        // Local-name matching for prefixed elements.
        assert_eq!(el.find("c").unwrap().name, "ns:c");
        assert_eq!(el.find("ns:c").unwrap().name, "ns:c");
        assert!(el.find("ns2:c").is_none());
    }

    #[test]
    fn path_navigation() {
        let el = Element::new("env")
            .with_child(Element::new("hdr").with_child(Element::new("sec").with_text("s")));
        assert_eq!(el.path(&["hdr", "sec"]).unwrap().text_content(), "s");
        assert!(el.path(&["hdr", "nope"]).is_none());
    }

    #[test]
    fn find_by_attr_recurses() {
        let el = Element::new("a")
            .with_child(Element::new("b").with_child(Element::new("c").with_attr("Id", "target")));
        assert_eq!(el.find_by_attr("Id", "target").unwrap().name, "c");
        assert!(el.find_by_attr("Id", "other").is_none());
    }

    #[test]
    fn find_descendant_works() {
        let el =
            Element::new("a").with_child(Element::new("b").with_child(Element::new("deep:target")));
        assert_eq!(el.find_descendant("target").unwrap().name, "deep:target");
    }

    #[test]
    fn escaping_roundtrip() {
        let el = Element::new("t")
            .with_attr("a", "x\"<>&'y")
            .with_text("a < b && c > \"d\"");
        let xml = el.to_xml();
        let parsed = Element::parse(&xml).unwrap();
        assert_eq!(parsed.attr("a"), Some("x\"<>&'y"));
        assert_eq!(parsed.text_content(), "a < b && c > \"d\"");
    }

    #[test]
    fn canonical_sorts_attributes() {
        let a = Element::new("t").with_attr("z", "1").with_attr("a", "2");
        let b = Element::new("t").with_attr("a", "2").with_attr("z", "1");
        assert_ne!(a.to_xml(), b.to_xml());
        assert_eq!(a.canonical_xml(), b.canonical_xml());
    }

    #[test]
    fn canonical_never_self_closes() {
        let el = Element::new("empty");
        assert_eq!(el.to_xml(), "<empty/>");
        assert_eq!(el.canonical_xml(), "<empty></empty>");
        // Self-closing and explicit forms parse to the same infoset,
        // hence the same canonical bytes.
        let a = Element::parse("<empty/>").unwrap();
        let b = Element::parse("<empty></empty>").unwrap();
        assert_eq!(a.canonical_xml(), b.canonical_xml());
    }

    #[test]
    fn set_attr_replaces() {
        let mut el = Element::new("t");
        el.set_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attributes.len(), 1);
        assert_eq!(el.attr("k"), Some("2"));
    }

    #[test]
    fn doc_shape() {
        let env = Element::new("soap:Envelope")
            .with_attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
            .with_child(Element::new("soap:Header"))
            .with_child(Element::new("soap:Body").with_text("payload"));
        let xml = env.to_xml();
        assert!(xml.starts_with("<soap:Envelope"));
        let parsed = Element::parse(&xml).unwrap();
        assert_eq!(parsed, env);
    }
}
