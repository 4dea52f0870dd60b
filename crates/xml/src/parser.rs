//! A strict, non-validating XML parser.
//!
//! Supports: elements, attributes (single- or double-quoted), text with
//! the five predefined entities plus numeric character references,
//! comments, CDATA sections, and a leading XML declaration. Rejects:
//! DTDs, processing instructions, mismatched tags, and trailing content.

use crate::{Element, Node};

/// Parse errors with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input at which the error was detected.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl core::fmt::Display for XmlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Maximum element nesting depth. `parse_element` recurses per level,
/// so without a cap a wire-supplied document of ~10⁴ open tags
/// overflows the stack — an attacker-triggerable abort. Every real
/// envelope in this codebase nests < 20 deep; 128 leaves an order of
/// magnitude of headroom while bounding recursion.
pub(crate) const MAX_DEPTH: usize = 128;

/// The cursor. `pos` only ever moves past ASCII bytes or to the position
/// of one, so it is always a character boundary of `input` and text is
/// taken from it by slicing, never re-validated or copied on the way.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

/// Parse a document into its root element.
pub(crate) fn parse(input: &str) -> Result<Element, XmlError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_prolog()?;
    let root = p.parse_element()?;
    p.skip_misc();
    if p.pos != p.input.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip XML declaration, comments, and whitespace before the root.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            match self.rest().find("?>") {
                Some(rel) => self.pos += rel + 2,
                None => return Err(self.err("unterminated XML declaration")),
            }
        }
        self.skip_misc();
        if self.starts_with("<!DOCTYPE") {
            return Err(self.err("DTDs are not supported"));
        }
        Ok(())
    }

    /// Skip whitespace and comments.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if let Some(rel) = self.input[self.pos + 4..].find("-->") {
                    self.pos += 4 + rel + 3;
                    continue;
                }
                // Unterminated comment: leave for the element parser to fail.
                self.pos = self.input.len();
            }
            break;
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let len = rest
            .bytes()
            .position(|c| !(c.is_ascii_alphanumeric() || matches!(c, b':' | b'_' | b'-' | b'.')))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected a name"));
        }
        self.pos += len;
        Ok(&rest[..len])
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn parse_element(&mut self) -> Result<Element, XmlError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("element nesting exceeds {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let el = self.parse_element_inner();
        self.depth -= 1;
        el
    }

    fn parse_element_inner(&mut self) -> Result<Element, XmlError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut el = Element::new(name);

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(el); // self-closing
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => {
                            self.pos += 1;
                            q
                        }
                        _ => return Err(self.err("attribute value must be quoted")),
                    };
                    let rest = self.rest();
                    let len = match rest.bytes().position(|c| c == quote || c == b'<') {
                        Some(i) if rest.as_bytes()[i] == b'<' => {
                            self.pos += i;
                            return Err(self.err("'<' in attribute value"));
                        }
                        Some(i) => i,
                        None => {
                            self.pos = self.input.len();
                            return Err(self.err("unterminated attribute value"));
                        }
                    };
                    self.pos += len + 1;
                    let value = unescape(&rest[..len]).map_err(|m| self.err(m))?;
                    if el.attr(attr_name).is_some() {
                        return Err(self.err(format!("duplicate attribute {attr_name:?}")));
                    }
                    el.attributes.push((attr_name.to_string(), value));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }

        // Children until the matching end tag.
        loop {
            if self.starts_with("<!--") {
                let before = self.pos;
                self.skip_misc();
                if self.pos == before {
                    return Err(self.err("unterminated comment"));
                }
                continue;
            }
            if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                match self.input[start..].find("]]>") {
                    Some(rel) => {
                        let text = self.input[start..start + rel].to_string();
                        el.children.push(Node::Text(text));
                        self.pos = start + rel + 3;
                        continue;
                    }
                    None => return Err(self.err("unterminated CDATA section")),
                }
            }
            if self.starts_with("</") {
                self.pos += 2;
                let end_name = self.parse_name()?;
                if end_name != el.name {
                    return Err(self.err(format!(
                        "mismatched end tag: expected </{}>, found </{}>",
                        el.name, end_name
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(el);
            }
            match self.peek() {
                Some(b'<') => {
                    let child = self.parse_element()?;
                    el.children.push(Node::Element(child));
                }
                Some(_) => {
                    let rest = self.rest();
                    let raw = &rest[..rest.find('<').unwrap_or(rest.len())];
                    self.pos += raw.len();
                    let text = unescape(raw).map_err(|m| self.err(m))?;
                    // Whitespace-only runs between elements are not
                    // significant for our protocols.
                    if !text.trim().is_empty() {
                        el.children.push(Node::Text(text));
                    }
                }
                None => return Err(self.err("unexpected end of input in element content")),
            }
        }
    }
}

/// Decode the predefined entities and numeric character references:
/// the runs between references are copied whole from the input.
fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp + 1..];
        let semi = rest.find(';').ok_or("unterminated entity reference")?;
        let entity = &rest[..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| "bad hex character reference")?;
                out.push(char::from_u32(code).ok_or("invalid character reference")?);
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| "bad decimal character reference")?;
                out.push(char::from_u32(code).ok_or("invalid character reference")?);
            }
            other => return Err(format!("unknown entity &{other};")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let el = parse("<a/>").unwrap();
        assert_eq!(el.name, "a");
        assert!(el.children.is_empty());
    }

    #[test]
    fn xml_decl_and_comments_skipped() {
        let el = parse("<?xml version=\"1.0\"?><!-- hi --><a>x</a><!-- bye -->").unwrap();
        assert_eq!(el.text_content(), "x");
    }

    #[test]
    fn nested_elements_and_attrs() {
        let el = parse(r#"<a x="1" y='2'><b><c z="3"/></b>text</a>"#).unwrap();
        assert_eq!(el.attr("x"), Some("1"));
        assert_eq!(el.attr("y"), Some("2"));
        assert_eq!(el.path(&["b", "c"]).unwrap().attr("z"), Some("3"));
        assert_eq!(el.text_content(), "text");
    }

    #[test]
    fn entities_decoded() {
        let el = parse("<a t=\"&quot;&apos;\">&amp;&lt;&gt;&#65;&#x42;</a>").unwrap();
        assert_eq!(el.text_content(), "&<>AB");
        assert_eq!(el.attr("t"), Some("\"'"));
    }

    #[test]
    fn cdata_supported() {
        let el = parse("<a><![CDATA[<raw>&stuff]]></a>").unwrap();
        assert_eq!(el.text_content(), "<raw>&stuff");
    }

    #[test]
    fn interelement_whitespace_dropped() {
        let el = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(el.child_elements().count(), 2);
        assert_eq!(el.text_content(), "");
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a></b>").is_err());
        assert!(parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "<",
            "<a",
            "<a x=1/>",
            "<a x=\"1/>",
            "<a/><b/>",
            "junk<a/>",
            "<a>&nbsp;</a>",
            "<a>&unterminated</a>",
            "<!DOCTYPE html><a/>",
            "<a x=\"1\" x=\"2\"/>",
            "<a><![CDATA[x]]</a>",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = parse("<a></b>").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn deeply_nested_ok() {
        let mut doc = String::new();
        for _ in 0..100 {
            doc.push_str("<d>");
        }
        doc.push('x');
        for _ in 0..100 {
            doc.push_str("</d>");
        }
        let el = parse(&doc).unwrap();
        let mut depth = 1;
        let mut cur = &el;
        while let Some(c) = cur.find("d") {
            depth += 1;
            cur = c;
        }
        assert_eq!(depth, 100);
    }

    #[test]
    fn nesting_beyond_cap_is_an_error_not_a_stack_overflow() {
        // One past the cap fails cleanly...
        let mut doc = String::new();
        for _ in 0..MAX_DEPTH + 1 {
            doc.push_str("<d>");
        }
        let err = parse(&doc).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // ...and so does a wire-scale bomb that would otherwise blow
        // the stack (each level recurses parse_element).
        let bomb = "<d>".repeat(200_000);
        assert!(parse(&bomb).is_err());
        // Exactly at the cap still parses.
        let mut ok = String::new();
        for _ in 0..MAX_DEPTH {
            ok.push_str("<d>");
        }
        for _ in 0..MAX_DEPTH {
            ok.push_str("</d>");
        }
        assert!(parse(&ok).is_ok());
    }
}
