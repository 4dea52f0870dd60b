//! The run-at-a-time writer and parser held to the ones they replaced.
//!
//! The old serialiser — escape every node char by char into a temporary
//! `String` — lives on here as the reference: `to_xml` and `canonical_xml`
//! must give its bytes on seeded trees whose attribute values and text mix
//! the five specials with multi-byte UTF-8, and `parse` must give the tree
//! back.

use std::time::{Duration, Instant};

use gridsec_util::check::{check, Gen};
use gridsec_xml::{Element, Node};

const CASES: u64 = 256;

const NAME_CHARS: &str = "ABCXYZabcxyz0189:_-.";
/// The five specials, ASCII around them, whitespace, and characters of
/// two, three and four UTF-8 bytes.
const TEXT_CHARS: &str = "&<>\"'&<>\"'abAB09;#x \n\t=/éßЖ€中𝄞🔒";

fn reference_escape(s: &str, attr: bool) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\'' if attr => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

fn reference_write(el: &Element, canonical: bool) -> String {
    let mut attrs = el.attributes.clone();
    if canonical {
        attrs.sort();
    }
    let mut out = format!("<{}", el.name);
    for (k, v) in &attrs {
        out += &format!(" {k}=\"{}\"", reference_escape(v, true));
    }
    if el.children.is_empty() && !canonical {
        return out + "/>";
    }
    out.push('>');
    for c in &el.children {
        match c {
            Node::Element(e) => out += &reference_write(e, canonical),
            Node::Text(t) => out += &reference_escape(t, false),
        }
    }
    out + &format!("</{}>", el.name)
}

fn name(g: &mut Gen) -> String {
    format!("{}{}", g.char_from("AZaz"), g.string(NAME_CHARS, 0..8))
}

/// Text the parser keeps as one node: not whitespace-only.
fn text(g: &mut Gen, len: usize) -> String {
    let s = g.string(TEXT_CHARS, 0..len);
    if s.trim().is_empty() {
        "é&".to_string()
    } else {
        s
    }
}

/// A tree in the shape the parser produces: unique attribute names, no
/// two text nodes side by side, no whitespace-only text.
fn tree(g: &mut Gen, depth: usize) -> Element {
    let mut el = Element::new(name(g));
    for _ in 0..g.usize_in(0..4) {
        el.set_attr(name(g), g.string(TEXT_CHARS, 0..40));
    }
    let mut last_was_text = false;
    for _ in 0..g.usize_in(0..5) {
        if depth > 0 && (last_was_text || g.bool()) {
            el.push_child(tree(g, depth - 1));
            last_was_text = false;
        } else if !last_was_text {
            // Long enough to span several of the writer's 32-byte looks.
            el.push_text(text(g, 100));
            last_was_text = true;
        }
    }
    el
}

#[test]
fn writer_matches_the_char_by_char_reference() {
    check("writer_matches_the_char_by_char_reference", CASES, |g| {
        let el = tree(g, 3);
        assert_eq!(el.to_xml(), reference_write(&el, false));
        assert_eq!(el.canonical_xml(), reference_write(&el, true));
        let mut appended = String::from("prefix");
        el.write_xml(&mut appended);
        assert_eq!(appended, format!("prefix{}", el.to_xml()));
    });
}

#[test]
fn parse_inverts_both_serialisations() {
    check("parse_inverts_both_serialisations", CASES, |g| {
        let el = tree(g, 3);
        assert_eq!(Element::parse(&el.to_xml()).unwrap(), el);
        let mut sorted = Element::parse(&el.canonical_xml()).unwrap();
        assert_eq!(sorted.canonical_xml(), el.canonical_xml());
        // Canonical form differs from the tree only in attribute order.
        fn sort_attrs(el: &mut Element) {
            el.attributes.sort();
            for c in &mut el.children {
                if let Node::Element(e) = c {
                    sort_attrs(e);
                }
            }
        }
        let mut expect = el.clone();
        sort_attrs(&mut expect);
        sort_attrs(&mut sorted);
        assert_eq!(sorted, expect);
    });
}

#[test]
fn entities_next_to_multibyte_characters() {
    let el = Element::parse(
        "<a t='é&#233;€&quot;𝄞&#x1D11E;&apos;中'>é&amp;€&#8364;&lt;𝄞&#x1d11e;&gt;中&#20013;é</a>",
    )
    .unwrap();
    assert_eq!(el.attr("t"), Some("éé€\"𝄞𝄞'中"));
    assert_eq!(el.text_content(), "é&€€<𝄞𝄞>中中é");
    // And back: only the specials are escaped, multi-byte runs go whole.
    assert_eq!(
        el.to_xml(),
        "<a t=\"éé€&quot;𝄞𝄞&apos;中\">é&amp;€€&lt;𝄞𝄞&gt;中中é</a>"
    );
    for bad in [
        "<a>é&#xD800;</a>",
        "<a>é&#1114112;</a>",
        "<a>&é;</a>",
        "<a>&#é;</a>",
        "<a>€&amp</a>",
        "<a t='𝄞&lt'/>",
    ] {
        assert!(Element::parse(bad).is_err(), "{bad:?}");
    }
}

/// A text node of `len` bytes: a special every 61 characters, a
/// multi-byte one every 7.
fn long_text(len: usize) -> String {
    let mut text = String::with_capacity(len + 8);
    for i in 0.. {
        if text.len() >= len {
            break;
        }
        match i {
            _ if i % 61 == 0 => text.push('&'),
            _ if i % 7 == 0 => text.push('€'),
            _ => text.push((b'a' + (i % 26) as u8) as char),
        }
    }
    text
}

/// Fastest of three: two serialisations and a parse of `el`.
fn round_trip_time(el: &Element) -> Duration {
    (0..3)
        .map(|_| {
            let began = Instant::now();
            let xml = el.to_xml();
            let c14n = el.canonical_xml();
            let parsed = Element::parse(&xml).unwrap();
            let took = began.elapsed();
            assert_eq!(xml, c14n);
            assert_eq!(&parsed, el);
            took
        })
        .min()
        .unwrap()
}

#[test]
fn a_megabyte_text_node_is_linear() {
    let el = Element::new("big")
        .with_attr("k", "v")
        .with_text(long_text(1 << 20));
    let began = Instant::now();
    let expected = reference_write(&el, false);
    let reference = began.elapsed();
    assert_eq!(el.to_xml(), expected);
    // The char-by-char reference writer is one pass by construction, so
    // it is the yardstick: two serialisations and a parse take about as
    // long as it does when every stage is one pass, and hundreds of times
    // as long when one is quadratic. A ratio of readings taken back to
    // back, not a wall-clock limit, so a loaded box does not fail it.
    let took = round_trip_time(&el);
    assert!(
        took < reference * 20,
        "reference {reference:?}, round trip {took:?}"
    );
}
